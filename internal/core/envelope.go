package core

import (
	"fmt"

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

// encode marshals the envelope to a map Value.
func (ev envelope) encode() Value {
	m := map[string]Value{
		"Kind":  dynamo.S(ev.Kind),
		"Input": ev.Input,
	}
	if ev.InstanceID != "" {
		m["InstanceId"] = dynamo.S(ev.InstanceID)
	}
	if ev.Async {
		m["Async"] = dynamo.Bool(true)
	}
	if ev.App != "" {
		m["App"] = dynamo.S(ev.App)
	}
	if ev.CallerFn != "" {
		m["CallerFn"] = dynamo.S(ev.CallerFn)
	}
	if ev.CallerInstance != "" {
		m["CallerInstance"] = dynamo.S(ev.CallerInstance)
		m["CallerStep"] = dynamo.S(ev.CallerStep)
	}
	if ev.CalleeID != "" {
		m["CalleeId"] = dynamo.S(ev.CalleeID)
	}
	if ev.HasRes {
		m["Result"] = ev.Result
	}
	if ev.ReplyFn != "" {
		m["ReplyFn"] = dynamo.S(ev.ReplyFn)
		m["ReplyOwner"] = dynamo.S(ev.ReplyOwner)
		m["ReplyStep"] = dynamo.S(ev.ReplyStep)
	}
	if ev.Txn != nil {
		m["Txn"] = ev.Txn.encode()
	}
	if ev.First {
		m["First"] = dynamo.Bool(true)
	}
	return dynamo.M(m)
}

// InstanceKey is the envelope map entry carrying the callee's instance id.
// Fire sources that stamp a deterministic per-occurrence id into a client
// envelope (durable timers; see queue.TimerSpec.StampKey) name this entry,
// so every redelivery of the same occurrence runs as the same intent and
// the intent table deduplicates it.
const InstanceKey = "InstanceId"

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

// decodeEnvelope unmarshals an invocation payload. Raw payloads that are not
// envelopes (external clients invoking the workflow directly) are treated as
// kindCall with the payload as Input, so Beldi SSFs remain directly
// invokable.
func decodeEnvelope(raw Value) envelope {
	m := raw.Map()
	if m == nil {
		return envelope{Kind: kindCall, Input: raw}
	}
	kindV, ok := m["Kind"]
	if !ok {
		return envelope{Kind: kindCall, Input: raw}
	}
	ev := envelope{Kind: kindV.Str()}
	ev.Input = m["Input"]
	if v, ok := m["InstanceId"]; ok {
		ev.InstanceID = v.Str()
	}
	if v, ok := m["Async"]; ok {
		ev.Async = v.BoolVal()
	}
	if v, ok := m["App"]; ok {
		ev.App = v.Str()
	}
	if v, ok := m["CallerFn"]; ok {
		ev.CallerFn = v.Str()
	}
	if v, ok := m["CallerInstance"]; ok {
		ev.CallerInstance = v.Str()
		ev.CallerStep = m["CallerStep"].Str()
	}
	if v, ok := m["CalleeId"]; ok {
		ev.CalleeID = v.Str()
	}
	if v, ok := m["Result"]; ok {
		ev.Result = v
		ev.HasRes = true
	}
	if v, ok := m["ReplyFn"]; ok {
		ev.ReplyFn = v.Str()
		ev.ReplyOwner = m["ReplyOwner"].Str()
		ev.ReplyStep = m["ReplyStep"].Str()
	}
	if v, ok := m["Txn"]; ok {
		ev.Txn = decodeTxnContext(v)
	}
	if v, ok := m["First"]; ok {
		ev.First = v.BoolVal()
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
	return dynamo.M(map[string]Value{
		"Id":    dynamo.S(tc.ID),
		"Mode":  dynamo.S(string(tc.Mode)),
		"Start": dynamo.NInt(tc.Start),
	})
}

func decodeTxnContext(v Value) *TxnContext {
	m := v.Map()
	if m == nil {
		return nil
	}
	return &TxnContext{
		ID:    m["Id"].Str(),
		Mode:  TxnMode(m["Mode"].Str()),
		Start: m["Start"].Int(),
	}
}

// String renders the context for diagnostics.
func (tc *TxnContext) String() string {
	return fmt.Sprintf("txn(%s,%s,%d)", tc.ID, tc.Mode, tc.Start)
}
