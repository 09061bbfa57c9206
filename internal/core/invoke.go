package core

import (
	"errors"
	"fmt"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// This file implements SSF invocation with exactly-once semantics (§4.5,
// Figures 8, 9, 19, 20). The caller logs each invocation in its invoke log
// keyed by (instance, step), assigning the callee a fresh instance id the
// first time and reusing it on every re-execution. The callee, before
// marking its own intent done, issues a *callback* — a second invocation,
// addressed to the caller SSF — that records the result in the caller's
// invoke log. Only then may the callee complete: this closes the Figure 9
// window in which the callee's garbage collector could prune the intent
// before the caller ever saw the result, which would cause a re-execution
// and a duplicated effect.

// Unlogged calls to pure callees. A callee that reads only sealed tables and
// calls only such callees computes the same result in every execution: a
// sealed read returns the same value every time (seal.go), and a callee with
// no effects needs no intent (handleCall). So its call needs no invoke-log
// row and no callback either. A SyncInvoke outside a transaction whose
// callee is hinted pure runs unlogged: the callee gets a fresh id and keeps
// no intent, not even a deferred one, and the caller still consumes the step
// key, so a logged re-execution and an unlogged one agree on numbering.
//
// The callee's side is one check, impure, which every Env op but a sealed
// read and a pure call makes first. In a logged execution it marks the
// execution impure. In an unlogged one it refuses the op with ErrNotPure,
// before any step key or store op, and poisons the execution: its reply is
// the not-pure marker whatever the body returns. The caller then makes the
// logged call at the same step key; nothing durable was written. A nested
// call of an unlogged execution is always tried unlogged, and a refused one
// refuses the whole tree.
//
// The caller's hint is per runtime: the (app, callee) pairs whose logged
// execution claimed purity in its callback (handleCallback). A logged
// execution claims purity only if it was never marked impure and made at
// least one sealed read or pure call, so a deployment that seals nothing
// never takes the rule. A wrong hint costs one refused invocation and no
// store write, and the refusal removes it.

// The bits of readLogState.purity.
const (
	purityUnlogged uint32 = 1 << iota // runs unlogged: only sealed reads and pure calls are admitted
	purityRefused                     // unlogged, and an op was refused: the execution is poisoned
	purityImpure                      // logged, and made an op other than a sealed read or a pure call
	purityLicensed                    // made a sealed read or a pure call
)

// impure is the check every Env op but a sealed read and a pure call makes
// first, op naming it. A logged execution is marked impure and the op
// admitted; an unlogged one is refused, for good.
func (e *Env) impure(op string) error {
	p := &e.shared.reads.purity
	v := p.Load()
	if v&purityUnlogged == 0 {
		if v&purityImpure == 0 {
			p.Or(purityImpure)
		}
		return nil
	}
	if (op == "read" && FaultUnloggedAdmitsUnsealedRead.Load()) || // see simfault.go
		((op == "write" || op == "condwrite") && FaultUnloggedAdmitsWrite.Load()) {
		return nil
	}
	p.Or(purityRefused)
	return fmt.Errorf("%w: %s %s in an unlogged execution of %s", ErrNotPure, e.rt.fn, op, e.instanceID)
}

// licensed records a sealed read or a pure call: what entitles a logged
// execution to claim purity.
func (e *Env) licensed() {
	if p := &e.shared.reads.purity; p.Load()&purityLicensed == 0 {
		p.Or(purityLicensed)
	}
}

// claimsPure reports whether a logged execution may teach its caller that
// its callee is pure: never marked impure, and licensed.
func (e *Env) claimsPure() bool {
	return e.shared.reads.purity.Load()&(purityImpure|purityLicensed) == purityLicensed
}

// SyncInvoke calls another Beldi-enabled SSF and returns its result, with
// exactly-once semantics end to end. Inside a transaction, the transaction
// context rides along and the callee is recorded for commit/abort
// propagation (§6.2). Outside one, a call to a callee hinted pure runs
// unlogged (see above).
func (e *Env) SyncInvoke(callee string, input Value) (Value, error) {
	e.rt.stats.SyncCalls.Add(1)
	if e.rt.mode == ModeBaseline {
		return e.baselineSyncInvoke(callee, input)
	}
	if e.inExecute() {
		if err := e.recordTxnCallee(callee); err != nil {
			return dynamo.Null, err
		}
	}
	return e.syncInvoke(callee, input, e.shared.txn)
}

func (e *Env) syncInvoke(callee string, input Value, txn *TxnContext) (Value, error) {
	stepKey := e.nextStepKey()
	unlogged := e.shared.reads.purity.Load()&purityUnlogged != 0
	if unlogged || (txn == nil && !e.rt.cfg.DisableCallbacks && e.rt.pure.has(e.shared.app, callee)) {
		if out, ok := e.pureCall(stepKey, callee, input); ok {
			return out, nil
		}
		if unlogged {
			return dynamo.Null, e.impure("call of " + callee)
		}
	}
	t0 := e.rt.spanClock()
	out, calleeID, replay, err := e.syncInvokeStep(stepKey, callee, input, txn)
	e.callSpan(t0, telemetry.KindCall, stepKey, callee, calleeID, replay, err)
	if err == nil && e.rt.pure.has(e.shared.app, callee) {
		e.licensed() // the callee came back pure
	} else {
		_ = e.impure("logged call")
	}
	return out, err
}

// pureCall runs callee unlogged at stepKey: no invoke-log row, no callback,
// a fresh callee id. ok is false when the callee was refused as not pure,
// which unlearns the hint, or failed in any other way.
func (e *Env) pureCall(stepKey, callee string, input Value) (_ Value, ok bool) {
	t0 := e.rt.spanClock()
	calleeID := e.rt.ids.NewString()
	ev := envelope{Kind: kindPure, InstanceID: calleeID, Input: input, App: e.shared.app,
		CallerInstance: e.instanceID, CallerStep: stepKey}
	out, err := e.rt.plat.InvokeInternalCtx(e.Context(), callee, ev.encode())
	if err == nil && isNotPureMarker(out) {
		e.rt.pure.remove(e.shared.app, callee)
		e.rt.stats.CallsUnloggedRefused.Add(1)
		err = fmt.Errorf("%w: %s refused an unlogged call", ErrNotPure, callee)
	}
	e.callSpan(t0, telemetry.KindCall, stepKey, callee, calleeID, false, err)
	if err != nil {
		return dynamo.Null, false
	}
	e.rt.stats.CallsUnlogged.Add(1)
	e.licensed()
	return out, true
}

// handlePure is the callee side of an unlogged call: the body runs with no
// intent, no read log and no callback. The reply is the result, or the
// not-pure marker if any op was refused, whatever the body returned: a body
// that swallowed ErrNotPure cannot hand back a result with an effect missing.
func (rt *Runtime) handlePure(inv *platform.Invocation, ev envelope) (Value, error) {
	obs := rt.beginExec(ev.InstanceID, ev, false)
	defer obs.finish()
	if obs != nil {
		// Why a trace shows a call that left no durable rows.
		obs.s.Name = "unlogged"
	}
	env := newEnv(rt, inv, ev.InstanceID, unloggedIntent, ev.App)
	env.shared.reads.purity.Store(purityUnlogged)
	ret, err := rt.runBody(env, ev.Input)
	if env.shared.reads.purity.Load()&purityRefused != 0 {
		obs.complete(ErrNotPure)
		return notPureMarker(), nil
	}
	obs.complete(err)
	return ret, err
}

// unloggedIntent is the record every unlogged execution runs under: fresh,
// so its read log is known empty, and never written. Nothing writes to it.
var unloggedIntent = &intentRecord{fresh: true}

// notPureMarker is the reply of a refused unlogged execution, sent as a
// value like abortMarker so that it survives any transport.
func notPureMarker() Value {
	return dynamo.Fields(dynamo.F("__beldi_notpure", dynamo.Bool(true)))
}

func isNotPureMarker(v Value) bool {
	mv, ok := v.MapGet("__beldi_notpure")
	return ok && mv.BoolVal()
}

// callSpan records the span of one invocation step: the causal edge from
// this instance to the callee intent it minted. No-op without a hub.
func (e *Env) callSpan(t0 int64, kind telemetry.Kind, stepKey, callee, calleeID string, replay bool, err error) {
	if e.rt.tel == nil {
		return
	}
	s := telemetry.Span{
		Intent: e.instanceID, Step: stepKey, Kind: kind, Fn: e.rt.fn,
		Name: callee, Child: calleeID,
		Start: t0, End: e.rt.clk.Now().UnixNano(), Replay: replay,
	}
	if err != nil {
		s.Err = err.Error()
	}
	e.rt.tel.Tracer.Record(s)
}

func (e *Env) syncInvokeStep(stepKey, callee string, input Value, txn *TxnContext) (_ Value, calleeID string, replay bool, _ error) {
	logKey := dynamo.HSK(dynamo.S(e.instanceID), dynamo.S(stepKey))

	// Log the invocation intent, minting the callee id exactly once.
	calleeID = e.rt.ids.NewString()
	e.crash("invoke:pre:", stepKey)
	err := e.update("invoke", e.rt.invokeLog, logKey, idAbsent,
		dynamo.Set(dynamo.A(attrCalleeID), dynamo.S(calleeID)))
	if err != nil {
		if !errors.Is(err, dynamo.ErrConditionFailed) {
			return dynamo.Null, calleeID, false, err
		}
		// Replay: reuse the recorded callee id; if the result already
		// arrived, return it without re-invoking (Fig 8).
		rec, ok, gerr := e.rt.store.Get(e.rt.invokeLog, logKey)
		if gerr != nil {
			return dynamo.Null, calleeID, true, gerr
		}
		if !ok {
			return dynamo.Null, calleeID, true, fmt.Errorf("core: invoke log row vanished: %s %s", e.instanceID, stepKey)
		}
		e.rt.stats.Replays.Add(1)
		replay = true
		if !FaultReinvokeIgnoresCalleeID.Load() { // see simfault.go
			calleeID = rec[attrCalleeID].Str()
			if res, has := rec[attrResult]; has {
				v, rerr := txnResult(res, txn)
				return v, calleeID, true, rerr
			}
		}
	}
	e.crash("invoke:mid:", stepKey)

	ev := envelope{
		Kind:           kindCall,
		InstanceID:     calleeID,
		Input:          input,
		App:            e.shared.app,
		CallerFn:       e.rt.fn,
		CallerInstance: e.instanceID,
		CallerStep:     stepKey,
		Txn:            txn,
	}
	// A callee crash is a delay, not a failure: re-invoke it with the SAME
	// callee id — its intent replays deterministically, so the retries are
	// harmless and mask transient deaths in place (the caller-side
	// equivalent of what the callee's intent collector would eventually
	// do). If the budget runs out, fail this instance and leave the rest
	// to the collectors.
	//
	// Only the launch that directly follows this execution's own applied
	// insert is first by construction; a replay or a retry may meet an
	// earlier execution of the callee, which may still be alive.
	ev.First = !replay || FaultReinvokeIgnoresCalleeID.Load()
	var callErr error
	for attempt := 0; ; attempt++ {
		if !ev.First {
			// The callee died mid-flight, or an earlier execution of this step
			// launched it. Its callback may still have made it: consult the
			// durable record, closing it to effect-free results if not.
			res, has, err := e.relaunchCallee(logKey)
			if err != nil {
				return dynamo.Null, calleeID, replay, err
			}
			if has {
				v, rerr := txnResult(res, txn)
				return v, calleeID, replay, rerr
			}
		}
		if attempt == syncInvokeRetries {
			return dynamo.Null, calleeID, replay, fmt.Errorf("core: syncInvoke %s: %w", callee, callErr)
		}
		var out Value
		out, callErr = e.rt.plat.InvokeInternalCtx(e.Context(), callee, ev.encode())
		e.crash("invoke:post:", stepKey)
		if callErr == nil {
			// The callee completed, which means its callback already
			// deposited the result in this invoke log (Fig 9's ordering);
			// the direct response equals the durable record and is used as
			// the §4.5 optimization — no extra round trip (Fig 8 returns
			// rawSyncInvoke's value directly).
			v, rerr := txnResult(out, txn)
			return v, calleeID, replay, rerr
		}
		ev.First = false
	}
}

// relaunchCallee precedes every launch of a callee but its first. A first
// launch keeps no log until its first effect, so the result of one that
// stayed effect-free is only as good as the guarantee that no other execution
// of the callee ever ran: one reading different state could take a path with
// effects, and the caller would hold the result of one execution beside the
// effects of another. So the row is marked, single-assignment against the
// result: marked, it refuses effect-free results from then on (handleCallback)
// and every execution from here on shares one intent and one log; refused, a
// result is already held and is returned instead of launching anything.
func (e *Env) relaunchCallee(logKey dynamo.Key) (res Value, has bool, _ error) {
	err := e.rt.store.Update(e.rt.invokeLog, logKey, loggedResultUnset,
		dynamo.Set(dynamo.A(attrRelaunched), dynamo.Bool(true)))
	if !errors.Is(err, dynamo.ErrConditionFailed) {
		return dynamo.Null, false, err
	}
	rec, _, err := e.rt.store.Get(e.rt.invokeLog, logKey)
	res, has = rec[attrResult]
	return res, has, err
}

// syncInvokeRetries bounds in-place re-invocations of a crashed callee.
const syncInvokeRetries = 4

// txnResult decodes a callee result, translating the abort marker into
// ErrTxnAborted so wait-die deaths propagate up the workflow (§6.2).
func txnResult(res Value, txn *TxnContext) (Value, error) {
	if txn != nil && isAbortMarker(res) {
		return dynamo.Null, ErrTxnAborted
	}
	return res, nil
}

// abortMarker is the result value an SSF returns when its part of a
// transaction died under wait-die; the caller converts it back into
// ErrTxnAborted.
func abortMarker() Value {
	return dynamo.Fields(dynamo.F("__beldi_abort", dynamo.Bool(true)))
}

func isAbortMarker(v Value) bool {
	mv, ok := v.MapGet("__beldi_abort")
	return ok && mv.BoolVal()
}

// AsyncInvoke starts another Beldi-enabled SSF without waiting for it,
// still with exactly-once semantics (§4.5, Fig 20): first a synchronous
// registration call makes the callee log the intent and confirm via
// callback; then the actual asynchronous invocation fires. Either this
// instance or the callee's own intent collector will eventually run the
// registered intent exactly once.
func (e *Env) AsyncInvoke(callee string, input Value) error {
	e.rt.stats.AsyncCalls.Add(1)
	if err := e.impure("async invoke"); err != nil {
		return err
	}
	if e.rt.mode == ModeBaseline {
		return e.baselineAsyncInvoke(callee, input)
	}
	if e.inExecute() {
		return ErrAsyncInTxn
	}
	_, _, err := e.asyncInvoke(callee, input, false)
	return err
}

// asyncInvoke is the §4.5/Fig 20 fire protocol shared by AsyncInvoke and
// AsyncInvokePromise: register the intent synchronously (minting the callee
// id exactly once), then fire the run. For a promise, this step's invoke-log
// key rides both the registered intent and the run envelope as the reply
// coordinates, so every eventual execution of the callee — direct or
// collector-restarted — posts its result into the row that logged the call.
// Returns the callee instance id, which doubles as the promise id, and the
// step key.
func (e *Env) asyncInvoke(callee string, input Value, promise bool) (id, stepKey string, _ error) {
	stepKey = e.nextStepKey()
	t0 := e.rt.spanClock()
	id, replay, err := e.asyncInvokeStep(stepKey, callee, input, promise)
	e.callSpan(t0, telemetry.KindAsync, stepKey, callee, id, replay, err)
	return id, stepKey, err
}

func (e *Env) asyncInvokeStep(stepKey, callee string, input Value, promise bool) (_ string, replay bool, _ error) {
	logKey := dynamo.HSK(dynamo.S(e.instanceID), dynamo.S(stepKey))

	calleeID := e.rt.ids.NewString()
	e.crash("ainvoke:pre:", stepKey)
	registered := false
	err := e.update("invoke", e.rt.invokeLog, logKey, idAbsent,
		dynamo.Set(dynamo.A(attrCalleeID), dynamo.S(calleeID)))
	if err != nil {
		if !errors.Is(err, dynamo.ErrConditionFailed) {
			return "", false, err
		}
		rec, ok, gerr := e.rt.store.Get(e.rt.invokeLog, logKey)
		if gerr != nil {
			return "", true, gerr
		}
		if !ok {
			return "", true, fmt.Errorf("core: invoke log row vanished: %s %s", e.instanceID, stepKey)
		}
		replay = true
		calleeID = rec[attrCalleeID].Str()
		_, registered = rec[attrResult]
	}

	// The run envelope is what step 2 fires and what the callee's intent
	// stores, so a promise's reply coordinates reach every execution.
	run := envelope{Kind: kindAsyncRun, InstanceID: calleeID, Input: input, Async: true, App: e.shared.app}
	if promise {
		run.ReplyFn, run.ReplyOwner, run.ReplyStep = e.rt.fn, e.instanceID, stepKey
	}
	launched := e.rt.now()
	if !registered {
		// Step 1: synchronous registration; the callee logs the intent,
		// started at this stamp, and confirms through the callback path
		// before we may fire the run.
		reg := run
		reg.Kind = kindAsyncRegister
		reg.CallerFn, reg.CallerInstance, reg.CallerStep = e.rt.fn, e.instanceID, stepKey
		reg.Launched = launched
		confirmed, err := e.rt.plat.InvokeInternalCtx(e.Context(), callee, reg.encode())
		if err != nil {
			return "", replay, fmt.Errorf("core: asyncInvoke %s: registration: %w", callee, err)
		}
		// The reply is the callback's verdict on this invoke-log row — the
		// durable record was written before the callee answered, so trusting
		// it is syncInvokeStep's §4.5 argument, not a weaker check.
		if !confirmed.BoolVal() {
			return "", replay, fmt.Errorf("core: asyncInvoke %s: registration not confirmed", callee)
		}
	}
	e.crash("ainvoke:mid:", stepKey)

	// Step 2: the actual asynchronous invocation, an in-process fire.
	// At-least-once is enough: the run stub skips intents that are missing
	// (GC'd) or complete. The registered intent is the durable record of the
	// run: if this fire is lost — the caller or the platform's async
	// goroutine dies — the callee's intent collector launches it. Only the
	// fire that directly follows this execution's own applied insert is
	// first: the registration it just made is the row's only launch, from
	// the stamp the row holds. A replay's fire may follow a relaunch.
	if !replay {
		run.First, run.Launched = true, launched
	}
	if err := e.rt.plat.InvokeAsyncInternal(callee, run.encode()); err != nil {
		return "", replay, fmt.Errorf("core: asyncInvoke %s: run: %w", callee, err)
	}
	e.crash("ainvoke:post:", stepKey)
	return calleeID, replay, nil
}

// issueCallback delivers result to the invoke log of call's caller (§4.5).
// It targets "some instance" of the caller function — request routing is
// stateless — and needs only at-least-once semantics. It relays
// handleCallback's verdict: held is the result the invoke-log row holds
// afterwards (result itself when this callback applied, an earlier one when
// the row already had it) and confirmed whether it holds one at all — false
// for a refused callback, where held is just result. effectFree marks the
// result of a first launch that kept no log, and pure that of an execution
// that claims purity, which teaches the caller to call this SSF unlogged.
func (rt *Runtime) issueCallback(call envelope, calleeID string, result Value, effectFree, pure bool) (held Value, confirmed bool, _ error) {
	cb := envelope{
		Kind:           kindCallback,
		CallerInstance: call.CallerInstance,
		CallerStep:     call.CallerStep,
		CalleeID:       calleeID,
		Result:         result,
		HasRes:         true,
		First:          effectFree,
	}
	if pure {
		cb.App, cb.Pure = call.App, rt.fn
	}
	out, err := rt.plat.InvokeInternal(call.CallerFn, cb.encode())
	if err != nil {
		return dynamo.Null, false, err
	}
	if earlier, ok := out.MapGet(callbackHeld); ok {
		return earlier, true, nil
	}
	return result, out.BoolVal(), nil
}

// callbackHeld keys handleCallback's reply when the row already held a result.
const callbackHeld = "Held"

// What a callback requires of its invoke-log row beyond naming its callee,
// built once (every callback of every workflow evaluates one of them): no
// result yet, and for an effect-free result no relaunch either. What
// relaunchCallee requires: a logged call with no result yet.
var (
	resultUnset        = dynamo.NotExists(dynamo.A(attrResult))
	resultUnsetRowOpen = dynamo.And(resultUnset, dynamo.NotExists(dynamo.A(attrRelaunched)))
	loggedResultUnset  = dynamo.And(idPresent, resultUnset)
)

// handleCallback is the caller-side callback handler: record the result for
// the (instance, step) invoke-log entry, guarded by the callee id so a
// spurious callback from a zombie re-execution of an already-collected
// intent is detected and ignored (§4.5). The result is single-assignment —
// the first one delivered wins: an effect-free callee keeps no log that would
// make a second execution compute the same value, so the row must not change
// once a caller may have read it. And an effect-free result (ev.First) is
// taken only while no other execution of the callee was launched
// (relaunchCallee). The reply is true when the update applied, {Held: result}
// when the row already held one for this callee (the sender adopts it), false
// when it was refused: spurious, or effect-free and too late. A callback that
// claims purity adds its callee to the pure-call hint either way.
func (rt *Runtime) handleCallback(ev envelope) (Value, error) {
	lk := dynamo.HSK(dynamo.S(ev.CallerInstance), dynamo.S(ev.CallerStep))
	rt.stats.CallbacksIn.Add(1)
	if ev.Pure != "" {
		rt.pure.add(ev.App, ev.Pure)
	}
	open := resultUnset
	if ev.First && !FaultRelaunchLeavesRowOpen.Load() { // see simfault.go
		open = resultUnsetRowOpen
	}
	err := rt.store.Update(rt.invokeLog, lk,
		dynamo.And(
			idPresent,
			dynamo.Eq(dynamo.A(attrCalleeID), dynamo.S(ev.CalleeID)),
			open,
		),
		dynamo.Set(dynamo.A(attrResult), ev.Result))
	if !errors.Is(err, dynamo.ErrConditionFailed) {
		return dynamo.Bool(err == nil), err
	}
	rec, ok, err := rt.store.Get(rt.invokeLog, lk)
	if err != nil {
		return dynamo.Null, err
	}
	if ok && rec[attrCalleeID].Str() == ev.CalleeID {
		if res, has := rec[attrResult]; has {
			return dynamo.Fields(dynamo.F(callbackHeld, res)), nil
		}
		// An effect-free result for a row a relaunch has closed.
		return dynamo.Bool(false), nil
	}
	// The invoke-log entry no longer exists (or names a different callee): a
	// spurious callback; ignore it.
	rt.stats.SpuriousCallback.Add(1)
	return dynamo.Bool(false), nil
}
