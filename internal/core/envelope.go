package core

import (
	"fmt"
	"slices"

	"repro/internal/dynamo"
)

// envelope is the wire format Beldi wraps around every invocation payload.
// It carries the callee's instance id (assigned by the caller, §3.3), the
// caller coordinates a callback must be routed to (§4.5), and the
// transaction context (§6.2). It is encoded as a plain map Value so it
// survives any serverless transport.
type envelope struct {
	Kind       string // "call", "callback", "asyncRegister", "asyncRun"
	InstanceID string // callee instance id ("" = adopt the platform request id)
	Input      Value
	Async      bool
	// First marks the one launch of a callee that is fresh by construction:
	// syncInvokeStep sets it only on the invocation that directly follows its
	// own applied invoke-log insert, so the callee id was minted a moment ago
	// and no other execution of it can exist. Such a callee defers its intent
	// row to its first effect boundary (handleCall). Never stored: the Args
	// of a materialised intent describe a relaunch, which is never first. On
	// a callback it marks the result of such a launch that stayed
	// effect-free, which a row closed by a relaunch refuses (handleCallback).
	First bool

	// App names the application the request belongs to (§2.2 SSF
	// reusability: one SSF serving several applications keeps each
	// application's state in separate tables). Propagated to callees.
	App string

	// Caller coordinates, for callbacks. CallerStep is the caller's invoke
	// log key step (string, branch-qualified).
	CallerFn       string
	CallerInstance string
	CallerStep     string

	// Callback payload.
	CalleeID string
	Result   Value
	HasRes   bool

	// Durable-promise reply coordinates (§4.5 extended): a promise-returning
	// AsyncInvoke stamps the caller function and its own invoke-log key
	// (instance, step) here so the callee, on completion, posts its result
	// into that row (a kindPromisePost invocation routed to ReplyFn). They
	// ride the registered run envelope, so collector-restarted runs post too.
	ReplyFn    string
	ReplyOwner string
	ReplyStep  string

	// Transaction context; nil when outside any transaction.
	Txn *TxnContext
}

// Envelope kinds.
const (
	kindCall          = "call"
	kindCallback      = "callback"
	kindAsyncRegister = "asyncRegister"
	kindAsyncRun      = "asyncRun"
	kindPromisePost   = "promisePost"
)

// encode marshals the envelope to a map Value. Its entries are listed in key
// order, so the field list is built as it is, once.
func (ev envelope) encode() Value {
	var buf [15]dynamo.Field
	fs := buf[:0]
	if ev.App != "" {
		fs = append(fs, dynamo.F("App", dynamo.S(ev.App)))
	}
	if ev.Async {
		fs = append(fs, dynamo.F("Async", dynamo.Bool(true)))
	}
	if ev.CalleeID != "" {
		fs = append(fs, dynamo.F("CalleeId", dynamo.S(ev.CalleeID)))
	}
	if ev.CallerFn != "" {
		fs = append(fs, dynamo.F("CallerFn", dynamo.S(ev.CallerFn)))
	}
	if ev.CallerInstance != "" {
		fs = append(fs, dynamo.F("CallerInstance", dynamo.S(ev.CallerInstance)), dynamo.F("CallerStep", dynamo.S(ev.CallerStep)))
	}
	if ev.First {
		fs = append(fs, dynamo.F("First", dynamo.Bool(true)))
	}
	fs = append(fs, dynamo.F("Input", ev.Input))
	if ev.InstanceID != "" {
		fs = append(fs, dynamo.F(instanceKey, dynamo.S(ev.InstanceID)))
	}
	fs = append(fs, dynamo.F("Kind", dynamo.S(ev.Kind)))
	if ev.ReplyFn != "" {
		fs = append(fs, dynamo.F("ReplyFn", dynamo.S(ev.ReplyFn)), dynamo.F("ReplyOwner", dynamo.S(ev.ReplyOwner)),
			dynamo.F("ReplyStep", dynamo.S(ev.ReplyStep)))
	}
	if ev.HasRes {
		fs = append(fs, dynamo.F("Result", ev.Result))
	}
	if ev.Txn != nil {
		fs = append(fs, dynamo.F("Txn", ev.Txn.encode()))
	}
	return dynamo.Fields(slices.Clone(fs)...)
}

// instanceKey is the envelope map entry carrying the callee's instance id.
const instanceKey = "InstanceId"

// ClientEnvelope wraps a raw client payload as a call envelope — how
// external requests enter a workflow. (Raw payloads are also accepted;
// this just makes the intent explicit.)
func ClientEnvelope(input Value) Value {
	return envelope{Kind: kindCall, Input: input}.encode()
}

// ClientEnvelopeForApp is ClientEnvelope carrying an application name, for
// SSFs serving several applications with separated state (§2.2).
func ClientEnvelopeForApp(app string, input Value) Value {
	return envelope{Kind: kindCall, Input: input, App: app}.encode()
}

// ClientInput is the client payload a ClientEnvelope wraps.
func ClientInput(env Value) Value { return decodeEnvelope(env).Input }

// decodeEnvelope unmarshals an invocation payload. Raw payloads that are not
// envelopes (external clients invoking the workflow directly) are treated as
// kindCall with the payload as Input, so Beldi SSFs remain directly
// invokable.
func decodeEnvelope(raw Value) envelope {
	if _, ok := raw.MapGet("Kind"); !ok {
		return envelope{Kind: kindCall, Input: raw}
	}
	var ev envelope
	for k, v := range raw.Entries() {
		switch k {
		case "App":
			ev.App = v.Str()
		case "Async":
			ev.Async = v.BoolVal()
		case "CalleeId":
			ev.CalleeID = v.Str()
		case "CallerFn":
			ev.CallerFn = v.Str()
		case "CallerInstance":
			ev.CallerInstance = v.Str()
		case "CallerStep":
			ev.CallerStep = v.Str()
		case "First":
			ev.First = v.BoolVal()
		case "Input":
			ev.Input = v
		case instanceKey:
			ev.InstanceID = v.Str()
		case "Kind":
			ev.Kind = v.Str()
		case "ReplyFn":
			ev.ReplyFn = v.Str()
		case "ReplyOwner":
			ev.ReplyOwner = v.Str()
		case "ReplyStep":
			ev.ReplyStep = v.Str()
		case "Result":
			ev.Result, ev.HasRes = v, true
		case "Txn":
			ev.Txn = decodeTxnContext(v)
		}
	}
	return ev
}

// TxnMode is a transaction context's phase (§6.2).
type TxnMode string

// Transaction phases.
const (
	TxExecute TxnMode = "execute"
	TxCommit  TxnMode = "commit"
	TxAbort   TxnMode = "abort"
)

// TxnContext identifies a top-level transaction: its id, phase, and the
// intent-creation time of the SSF that began it (the wait-die priority,
// Fig 11). Contexts are passed along with every invocation made inside the
// transaction.
type TxnContext struct {
	ID    string
	Mode  TxnMode
	Start int64 // microseconds; older (smaller) wins under wait-die
}

func (tc *TxnContext) encode() Value {
	return dynamo.Fields(
		dynamo.F("Id", dynamo.S(tc.ID)),
		dynamo.F("Mode", dynamo.S(string(tc.Mode))),
		dynamo.F("Start", dynamo.NInt(tc.Start)),
	)
}

func decodeTxnContext(v Value) *TxnContext {
	if v.Kind() != dynamo.KindMap {
		return nil
	}
	return &TxnContext{
		ID:    v.Get("Id").Str(),
		Mode:  TxnMode(v.Get("Mode").Str()),
		Start: v.Get("Start").Int(),
	}
}

// String renders the context for diagnostics.
func (tc *TxnContext) String() string {
	return fmt.Sprintf("txn(%s,%s,%d)", tc.ID, tc.Mode, tc.Start)
}
