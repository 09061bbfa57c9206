package remote

import (
	"errors"
	"sort"

	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/storage/codec"
)

// This file is what is RPC-specific in a message body: the structured error
// encoding that lets condition failures and canceled transactions round-trip
// with their errors.Is/errors.As identities intact, and the Metrics reply.
// Every other field of a request or reply is internal/storage/codec's.

// Wire error codes. Code 0 in a response means success.
const (
	codeOK byte = iota
	codeCondFailed
	codeItemTooLarge
	codeNoSuchTable
	codeTableExists
	codeNoSuchIndex
	codeTxCanceled
	codeBadRequest
	codeInternal
)

// codeEvent marks an unsolicited server-push frame (a watch commit event)
// rather than a response: the id field carries the client-chosen watch id,
// and the payload is [str table][value hash][u64 seq]. It lives far from the
// error codes so a response can never be mistaken for a push.
const codeEvent byte = 0x80

// identities pairs each error identity that crosses the wire with its code,
// in the order an error is tested against them.
var identities = []struct {
	code byte
	is   error
}{
	{codeBadRequest, ErrProtocol},
	{codeCondFailed, storage.ErrConditionFailed},
	{codeItemTooLarge, storage.ErrItemTooLarge},
	{codeNoSuchTable, storage.ErrNoSuchTable},
	{codeTableExists, storage.ErrTableExists},
	{codeNoSuchIndex, storage.ErrNoSuchIndex},
}

// encodeError maps a backend error onto the wire: a code, the message, and
// for canceled transactions the per-op reason list.
func encodeError(e *codec.Encoder, err error) {
	var tce *dynamo.TxCanceledError
	if errors.As(err, &tce) {
		e.U8(codeTxCanceled)
		e.Str(err.Error())
		e.Int(len(tce.Reasons))
		for _, r := range tce.Reasons {
			switch {
			case r == nil:
				e.U8(codeOK)
				e.Str("")
			case errors.Is(r, dynamo.ErrConditionFailed):
				e.U8(codeCondFailed)
				e.Str(r.Error())
			default:
				e.U8(codeInternal)
				e.Str(r.Error())
			}
		}
		return
	}
	code := codeInternal
	for _, id := range identities {
		if errors.Is(err, id.is) {
			code = id.code
			break
		}
	}
	e.U8(code)
	e.Str(err.Error())
}

// wireErr carries a server-side message while unwrapping to the shared
// sentinel, so errors.Is works across the network exactly as in-process.
type wireErr struct {
	msg      string
	sentinel error
}

func (e *wireErr) Error() string { return e.msg }
func (e *wireErr) Unwrap() error { return e.sentinel }

// coded rebuilds the error one (code, message) pair describes.
func coded(code byte, msg string) error {
	for _, id := range identities {
		if code == id.code {
			return &wireErr{msg, id.is}
		}
	}
	return errors.New(msg)
}

// decodeError rebuilds the error a non-zero response code describes.
func decodeError(code byte, d *codec.Decoder) error {
	err := coded(code, d.Str())
	if code == codeTxCanceled { // its message is rebuilt from the reasons
		tce := &dynamo.TxCanceledError{Reasons: make([]error, d.Count())}
		for i := range tce.Reasons {
			if rc, rmsg := d.U8(), d.Str(); rc != codeOK {
				tce.Reasons[i] = coded(rc, rmsg)
			}
		}
		err = tce
	}
	if derr := decodeErr(d); derr != nil {
		return derr
	}
	return err
}

// metricsCounters lists a snapshot's scalar counters in wire order.
func metricsCounters(s *dynamo.Snapshot) []*int64 {
	return []*int64{&s.CondFailures, &s.ItemsScanned, &s.BytesRead, &s.BytesWritten, &s.GroupCommits, &s.GroupCommitOps}
}

// encodeMetrics flattens a metrics snapshot for the Metrics RPC: the per-op
// counts by sorted name, then the scalar counters.
func encodeMetrics(e *codec.Encoder, s dynamo.Snapshot) {
	names := make([]string, 0, len(s.Ops))
	for k := range s.Ops {
		names = append(names, k)
	}
	sort.Strings(names)
	e.Int(len(names))
	for _, k := range names {
		e.Str(k)
		e.U64(uint64(s.Ops[k]))
	}
	for _, v := range metricsCounters(&s) {
		e.U64(uint64(*v))
	}
}

// decodeMetrics parses a Metrics RPC response.
func decodeMetrics(d *codec.Decoder) (dynamo.Snapshot, error) {
	n := d.Count()
	s := dynamo.Snapshot{Ops: make(map[string]int64, n)}
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		s.Ops[k] = int64(d.U64())
	}
	for _, v := range metricsCounters(&s) {
		*v = int64(d.U64())
	}
	return s, decodeErr(d)
}
