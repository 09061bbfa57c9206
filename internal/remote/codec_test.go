package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/storage/codec"
)

// The encoding of the data model and the frame itself are pinned where they
// live, in internal/storage/codec (its round-trip table, FuzzDecode and the
// format fixtures). The tests here pin what this package adds: which failures
// are ErrProtocol, the structured errors, and the Metrics reply.

func frameOf(body []byte) []byte {
	e := codec.NewEncoder(16)
	e.Raw(string(body))
	return e.Frame()
}

// TestFrameRoundTrip: frames come back whole through readFrame, and the end
// of the stream at a frame boundary is a bare io.EOF — serveConn tells a
// client that hung up from a protocol error by it.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("beldi"), 1000)}
	for _, b := range bodies {
		buf.Write(frameOf(b))
	}
	for i, want := range bodies {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("EOF at boundary: %v", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	// Truncated body.
	frame := frameOf([]byte("hello world"))
	if _, err := readFrame(bytes.NewReader(frame[:len(frame)-3])); !errors.Is(err, ErrProtocol) {
		t.Errorf("torn frame: %v", err)
	}
	// Flipped body bit fails the CRC.
	flipped := append([]byte(nil), frame...)
	flipped[codec.FrameHeaderLen+2] ^= 0x40
	if _, err := readFrame(bytes.NewReader(flipped)); !errors.Is(err, ErrProtocol) {
		t.Errorf("corrupt frame: %v", err)
	}
	// A length prefix past maxFrameBody is rejected before allocation.
	huge := []byte{0x01, 0x00, 0x00, 0x04, 0, 0, 0, 0}
	if _, err := readFrame(bytes.NewReader(huge)); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized frame: %v", err)
	}
}

// TestErrorRoundTrip pins the property every fencing guarantee rides on:
// the exact errors.Is/errors.As identities survive encode → decode.
func TestErrorRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		is   error
		name string
	}{
		{fmt.Errorf("wrapped: %w", dynamo.ErrConditionFailed), storage.ErrConditionFailed, "cond"},
		{dynamo.ErrItemTooLarge, storage.ErrItemTooLarge, "toolarge"},
		{dynamo.ErrNoSuchTable, storage.ErrNoSuchTable, "notable"},
		{dynamo.ErrTableExists, storage.ErrTableExists, "exists"},
		{dynamo.ErrNoSuchIndex, storage.ErrNoSuchIndex, "noindex"},
	}
	for _, c := range cases {
		e := codec.NewEncoder(64)
		encodeError(e, c.err)
		d := codec.NewDecoder(e.Body())
		got := decodeError(d.U8(), d)
		if !errors.Is(got, c.is) {
			t.Errorf("%s: decoded %v does not match sentinel", c.name, got)
		}
		if got.Error() != c.err.Error() {
			t.Errorf("%s: message %q != %q", c.name, got.Error(), c.err.Error())
		}
	}

	// Canceled transactions keep their positional reasons.
	tce := &dynamo.TxCanceledError{Reasons: []error{nil, dynamo.ErrConditionFailed, errors.New("boom")}}
	e := codec.NewEncoder(64)
	encodeError(e, tce)
	d := codec.NewDecoder(e.Body())
	got := decodeError(d.U8(), d)
	var gotTce *dynamo.TxCanceledError
	if !errors.As(got, &gotTce) {
		t.Fatalf("decoded %T, want TxCanceledError", got)
	}
	if !errors.Is(got, storage.ErrConditionFailed) {
		t.Error("decoded TxCanceledError lost its ErrConditionFailed identity")
	}
	if len(gotTce.Reasons) != 3 || gotTce.Reasons[0] != nil ||
		!errors.Is(gotTce.Reasons[1], storage.ErrConditionFailed) || gotTce.Reasons[2] == nil {
		t.Errorf("reasons = %v", gotTce.Reasons)
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	var m dynamo.Metrics
	m.Ops[dynamo.OpGet].Add(3)
	m.Ops[dynamo.OpTxWrite].Add(2)
	m.CondFailures.Add(1)
	m.BytesWritten.Add(77)
	want := m.Snapshot()
	e := codec.NewEncoder(64)
	encodeMetrics(e, want)
	got, err := decodeMetrics(codec.NewDecoder(e.Body()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics: got %+v want %+v", got, want)
	}
}

// TestDecoderTruncation: a request cut short anywhere is refused as a
// protocol error before the backend sees any of it, and a cut error or
// metrics reply is a protocol error too — no panic, no half-decoded field
// acted on. (The backend here has no table "t": a request that reached it
// would come back ErrNoSuchTable, not ErrProtocol.)
func TestDecoderTruncation(t *testing.T) {
	srv := NewServer(dynamo.NewStore(), ServeOptions{})
	key, cond := dynamo.HK(dynamo.S("k")), dynamo.Eq(dynamo.A("V"), dynamo.NInt(1))
	requests := map[byte]func(e *codec.Encoder){
		opCreateTable: func(e *codec.Encoder) { e.Schema(dynamo.Schema{Name: "t", HashKey: "K"}) },
		opGetProj: func(e *codec.Encoder) {
			e.Str("t")
			e.Key(key)
			e.Paths([]dynamo.Path{dynamo.A("V")})
		},
		opPut: func(e *codec.Encoder) {
			e.Str("t")
			e.Item(dynamo.Item{"K": dynamo.S("k"), "L": dynamo.L(dynamo.NInt(1), dynamo.S("two"))})
			e.Cond(cond)
		},
		opUpdate: func(e *codec.Encoder) {
			e.Str("t")
			e.Key(key)
			e.Cond(cond)
			e.Updates([]dynamo.Update{dynamo.Add(dynamo.A("V"), 1)})
		},
		opQueryIndex: func(e *codec.Encoder) {
			e.Str("t")
			e.Str("ix")
			e.Value(dynamo.S("h"))
			e.QueryOpts(dynamo.QueryOpts{Filter: cond, Limit: 3})
		},
		opTransactWrite: func(e *codec.Encoder) {
			e.Str("req-1")
			e.TxOps([]dynamo.TxOp{{Table: "t", Key: key, Cond: cond, Delete: true}})
		},
		opWatch: func(e *codec.Encoder) {
			e.U64(1)
			e.Str("t")
			e.Value(dynamo.S("h"))
		},
	}
	for op, enc := range requests {
		e := codec.NewEncoder(64)
		enc(e)
		for n := 0; n < e.Len(); n++ {
			pctx := &pushCtx{watches: make(map[uint64]storage.Subscription)}
			err := srv.handle(pctx, op, codec.NewDecoder(e.Body()[:n]), codec.NewEncoder(64))
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("%s cut to %d of %d bytes: %v", opName(op), n, e.Len(), err)
			}
		}
	}

	e := codec.NewEncoder(64)
	encodeError(e, &dynamo.TxCanceledError{Reasons: []error{nil, dynamo.ErrConditionFailed}})
	for n := 1; n < e.Len(); n++ {
		d := codec.NewDecoder(e.Body()[:n])
		if err := decodeError(d.U8(), d); !errors.Is(err, ErrProtocol) {
			t.Fatalf("error reply cut to %d of %d bytes: %v", n, e.Len(), err)
		}
	}
	e = codec.NewEncoder(64)
	encodeMetrics(e, (&dynamo.Metrics{}).Snapshot())
	for n := 0; n < e.Len(); n++ {
		if _, err := decodeMetrics(codec.NewDecoder(e.Body()[:n])); !errors.Is(err, ErrProtocol) {
			t.Fatalf("metrics reply cut to %d of %d bytes: %v", n, e.Len(), err)
		}
	}
}
