package remote

import (
	"errors"
	"sort"

	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/storage/codec"
)

// This file is what is RPC-specific in a message body: which fields a
// data-plane op's request and result carry, the structured error encoding
// that lets condition failures and canceled transactions round-trip with
// their errors.Is/errors.As identities intact, and the Metrics reply. Every
// field itself is internal/storage/codec's.

// opcodes is the request each op kind travels as. A Get with a projection
// is GetProj and a Query of an index QueryIndex, each with an opcode of its
// own (opcodeOf).
var opcodes = [...]byte{
	dynamo.OpGet:     opGet,
	dynamo.OpPut:     opPut,
	dynamo.OpUpdate:  opUpdate,
	dynamo.OpDelete:  opDelete,
	dynamo.OpQuery:   opQuery,
	dynamo.OpScan:    opScan,
	dynamo.OpTxWrite: opTransactWrite,
}

// opcodeOf names the request op travels as, 0 for an unknown kind.
func opcodeOf(op *storage.Op) byte {
	switch {
	case int(op.Kind) >= len(opcodes):
		return 0
	case op.Kind == dynamo.OpGet && op.Opts.Projection != nil:
		return opGetProj
	case op.Kind == dynamo.OpQuery && op.Index != "":
		return opQueryIndex
	}
	return opcodes[op.Kind]
}

// encodeOp appends the request payload of op, whose opcode is code:
//
//	get            [str table] Key
//	get_proj       [str table] Key Paths
//	put            [str table] Item Cond
//	update         [str table] Key Cond Updates
//	delete         [str table] Key Cond
//	query          [str table] Value QueryOpts
//	query_index    [str table][str index] Value QueryOpts
//	scan           [str table] QueryOpts
//	transact_write [str request id] TxOps
func encodeOp(e *codec.Encoder, code byte, reqID []byte, op *storage.Op) {
	if code == opTransactWrite {
		e.Bytes(reqID)
		e.TxOps(op.Tx)
		return
	}
	e.Str(op.Table)
	switch code {
	case opGet:
		e.Key(op.Key)
	case opGetProj:
		e.Key(op.Key)
		e.Paths(op.Opts.Projection)
	case opPut:
		e.Item(op.Item)
		e.Cond(op.Cond)
	case opUpdate:
		e.Key(op.Key)
		e.Cond(op.Cond)
		e.Updates(op.Updates)
	case opDelete:
		e.Key(op.Key)
		e.Cond(op.Cond)
	case opQueryIndex:
		e.Str(op.Index)
		fallthrough
	case opQuery:
		e.Value(op.Key.Hash)
		e.QueryOpts(op.Opts)
	case opScan:
		e.QueryOpts(op.Opts)
	}
}

// decodeOp reads the request payload encodeOp wrote for code, with a
// transaction's request id; ok is false when code is no data-plane op.
func decodeOp(code byte, d *codec.Decoder) (op storage.Op, reqID string, ok bool) {
	switch code {
	case opGet:
		op = storage.Op{Kind: dynamo.OpGet, Table: d.Name(), Key: d.Key()}
	case opGetProj:
		op = storage.Op{Kind: dynamo.OpGet, Table: d.Name(), Key: d.Key(), Opts: storage.QueryOpts{Projection: d.Paths()}}
	case opPut:
		op = storage.Op{Kind: dynamo.OpPut, Table: d.Name(), Item: d.Item(), Cond: d.Cond()}
	case opUpdate:
		op = storage.Op{Kind: dynamo.OpUpdate, Table: d.Name(), Key: d.Key(), Cond: d.Cond(), Updates: d.Updates()}
	case opDelete:
		op = storage.Op{Kind: dynamo.OpDelete, Table: d.Name(), Key: d.Key(), Cond: d.Cond()}
	case opQuery:
		op = storage.Op{Kind: dynamo.OpQuery, Table: d.Name(), Key: storage.Key{Hash: d.Value()}, Opts: d.QueryOpts()}
	case opQueryIndex:
		op = storage.Op{Kind: dynamo.OpQuery, Table: d.Name(), Index: d.Name(), Key: storage.Key{Hash: d.Value()}, Opts: d.QueryOpts()}
	case opScan:
		op = storage.Op{Kind: dynamo.OpScan, Table: d.Name(), Opts: d.QueryOpts()}
	case opTransactWrite:
		reqID = d.Str()
		op = storage.Op{Kind: dynamo.OpTxWrite, Tx: d.TxOps()}
	default:
		return op, "", false
	}
	return op, reqID, true
}

// encodeResult appends what an op of kind returned: [bool found] and the row
// when found (get), the rows (query, scan), nothing (a write).
func encodeResult(e *codec.Encoder, kind dynamo.OpKind, r storage.Result) {
	switch kind {
	case dynamo.OpGet:
		e.Bool(r.Found)
		if r.Found {
			e.Item(r.Item)
		}
	case dynamo.OpQuery, dynamo.OpScan:
		e.Items(r.Items)
	}
}

// decodeResult reads what encodeResult wrote for kind.
func decodeResult(d *codec.Decoder, kind dynamo.OpKind) (r storage.Result) {
	switch kind {
	case dynamo.OpGet:
		if r.Found = d.Bool(); r.Found {
			r.Item = d.Item()
		}
	case dynamo.OpQuery, dynamo.OpScan:
		r.Items = d.Items()
	}
	return r
}

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
