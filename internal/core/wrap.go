package core

import (
	"errors"
	"fmt"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// execObs observes one execution attempt of an intent for telemetry. A nil
// observer (telemetry off) no-ops. finish must run deferred: when the
// platform kills the worker mid-body, the panic unwinds through it and the
// attempt is recorded as crashed — which is exactly how a trace shows the
// pre-crash half of a recovered workflow.
type execObs struct {
	rt  *Runtime
	s   telemetry.Span
	ok  bool
	err error
}

// beginExec opens an exec span for one attempt; restart marks a
// re-execution of an already-created intent.
func (rt *Runtime) beginExec(id string, ev envelope, restart bool) *execObs {
	if rt.tel == nil {
		return nil
	}
	return &execObs{rt: rt, s: telemetry.Span{
		Intent: id, Kind: telemetry.KindExec, Fn: rt.fn,
		ParentIntent: ev.CallerInstance, ParentStep: ev.CallerStep,
		Replay: restart, Start: rt.clk.Now().UnixNano(),
	}}
}

// complete records the attempt's outcome; not calling it before finish
// (a kill panic skipped the return path) marks the attempt crashed.
func (o *execObs) complete(err error) {
	if o == nil {
		return
	}
	o.ok, o.err = err == nil, err
}

func (o *execObs) finish() {
	if o == nil {
		return
	}
	o.s.End = o.rt.clk.Now().UnixNano()
	if !o.ok {
		o.s.Err = "crashed"
		if o.err != nil {
			o.s.Err = o.err.Error()
		}
	}
	o.rt.tel.Tracer.Record(o.s)
}

// dedupExec records the zero-width exec span of a re-invocation that found
// its intent already done — an effect the protocol deduplicated.
func (rt *Runtime) dedupExec(id string, ev envelope) {
	if rt.tel == nil {
		return
	}
	now := rt.clk.Now().UnixNano()
	rt.tel.Tracer.Record(telemetry.Span{
		Intent: id, Kind: telemetry.KindExec, Fn: rt.fn, Name: "deduplicated",
		ParentIntent: ev.CallerInstance, ParentStep: ev.CallerStep,
		Replay: true, Start: now, End: now,
	})
}

// Register installs the SSF on its platform: the body is wrapped with
// Beldi's protocol actions — intent check/log on entry, replayed execution,
// callback delivery, and done-marking on exit (§3.2: "Beldi takes actions
// before and after the main body of the SSF"). It registers one platform
// function, the SSF itself: the collectors are not platform functions but
// passes, called directly (RunIntentCollector, RunGarbageCollector).
func Register(rt *Runtime, body Body) {
	rt.body = body
	rt.plat.Register(rt.fn, rt.Handler(), 0)
}

// Handler exposes the wrapped platform handler, for deployments that
// register the function themselves (e.g. with a custom timeout).
func (rt *Runtime) Handler() platform.Handler {
	if rt.mode == ModeBaseline {
		return rt.baselineHandler
	}
	return rt.handler
}

// handler is the wrapped entry point for every invocation of the SSF,
// dispatching on the envelope kind.
func (rt *Runtime) handler(inv *platform.Invocation, raw Value) (Value, error) {
	ev := decodeEnvelope(raw)
	switch ev.Kind {
	case kindCallback:
		return rt.handleCallback(ev)
	case kindAsyncRegister:
		return rt.handleAsyncRegister(inv, ev)
	case kindAsyncRun:
		return rt.handleAsyncRun(inv, ev)
	case kindPromisePost:
		return rt.handlePromisePost(ev)
	default:
		ret, err := rt.handleCall(inv, ev)
		if err == nil && ev.CallerFn == "" {
			// Workflow entry reply: the only effect that leaves the store
			// entirely (every other effect — callbacks, promise posts, txn
			// records, queue acks — is itself a store write and rides the
			// speculation log in order). Under a speculation overlay the
			// reply must not be released until the steps it depends on are
			// durable; on synchronous backends this is a free no-op.
			if ferr := storage.Fence(rt.store); ferr != nil {
				return dynamo.Null, ferr
			}
		}
		return ret, err
	}
}

// handleCall runs a synchronous (or collector-restarted) execution.
func (rt *Runtime) handleCall(inv *platform.Invocation, ev envelope) (Value, error) {
	id := ev.InstanceID
	if id == "" {
		// Workflow entry: adopt the platform's request id (§3.3).
		id = inv.RequestID
		ev.InstanceID = id
	}

	var intent *intentRecord
	if ev.First && ev.CallerFn != "" {
		// A first launch: no other execution of this id can exist, so there is
		// nothing to check, and the intent row — which exists to make the
		// instance's effects exactly-once — waits for its first effect
		// boundary (materialiseIntent). If the body never reaches one, the
		// result in the caller's invoke-log row is all the instance leaves.
		ev.First = false
		intent = rt.newIntent(id, ev)
		intent.deferred = true
		rt.stats.IntentsDeferred.Add(1)
	} else {
		var err error
		if intent, err = rt.ensureIntent(id, ev); err != nil {
			return dynamo.Null, err
		}
		inv.CrashPoint("intent:logged", "")
	}
	if intent.done {
		// A re-invocation of a completed intent: re-deliver the result via
		// the callback path so the caller's invoke log converges (Fig 19's
		// replay behaviour), then return the recorded value.
		rt.dedupExec(id, ev)
		ret, _, err := rt.deliver(inv, ev, id, intent.ret, false)
		return ret, err
	}
	obs := rt.beginExec(id, ev, !intent.fresh)
	defer obs.finish()
	env := newEnv(rt, inv, id, intent, ev.App)

	var ret Value
	var err error
	if ev.Txn != nil && ev.Txn.Mode != TxExecute {
		// Commit/Abort phase of a distributed transaction: skip the body,
		// settle local state and propagate (§6.2) — as a first-class intent,
		// so the phase itself is exactly-once and returns through the usual
		// callback path.
		ret, err = dynamo.S("txn:"+string(ev.Txn.Mode)), env.finishTxnLocal(ev.Txn)
	} else {
		env.shared.txn = ev.Txn // inherited Execute-mode context (§6.2)
		ret, err = rt.runBody(env, ev.Input)
		if errors.Is(err, ErrTxnAborted) {
			// The transaction died (wait-die or an application abort). The
			// abort protocol has already run — by the owner's Transaction
			// call, or it will be propagated by the owner once this abort
			// outcome reaches it (§6.2: "it returns to its caller with an
			// 'abort' outcome"). Either way this instance's execution is
			// complete, deterministically, so it finishes with the abort
			// marker as its result.
			ret, err = abortMarker(), nil
		}
	}
	effectFree := false
	if err == nil {
		effectFree, err = env.endBody()
	}
	if err != nil {
		// The instance failed; a written intent stays pending for the
		// collector, a deferred one never existed and the caller's retry
		// launches it eagerly.
		obs.complete(err)
		return dynamo.Null, err
	}
	inv.CrashPoint("body:done", "")

	// Callback before done-marking (Fig 9's ordering: the caller must hold
	// the result before this intent can be collected). What the caller's row
	// holds — this result, or an earlier execution's — is the intent's result.
	ret, confirmed, err := rt.deliver(inv, ev, id, ret, effectFree)
	switch {
	case err != nil:
	case !effectFree:
		if err = rt.markIntentDone(id, ret); err == nil {
			inv.CrashPoint("done:marked", "")
		}
	case !confirmed:
		// The callback is all an effect-free instance would have left.
		err = env.superseded("return", "its caller's row is closed to an effect-free result")
	default:
		rt.stats.IntentsElided.Add(1)
		if obs != nil {
			// Why a trace shows an instance id that has no intent row.
			obs.s.Name = "effect-free"
		}
	}
	obs.complete(err)
	if err != nil {
		return dynamo.Null, err
	}
	return ret, nil
}

// deliver hands ret to the caller's invoke log (§4.5) and returns the result
// that row holds afterwards: ret, unless another execution of this intent
// delivered first — the first result wins, and every callee path adopts it as
// its reply and as its intent's Ret, so caller and callee can never disagree.
// On a deterministic replay the two are equal anyway. confirmed is false when
// the row took and held nothing. Entries have no caller.
func (rt *Runtime) deliver(inv *platform.Invocation, ev envelope, id string, ret Value, effectFree bool) (held Value, confirmed bool, _ error) {
	if ev.CallerFn == "" || rt.cfg.DisableCallbacks {
		return ret, true, nil
	}
	held, confirmed, err := rt.issueCallback(ev.CallerFn, ev.CallerInstance, ev.CallerStep, id, ret, effectFree)
	if err != nil {
		return dynamo.Null, false, fmt.Errorf("core: %s: callback to %s failed: %w", rt.fn, ev.CallerFn, err)
	}
	inv.CrashPoint("callback:sent", "")
	return held, confirmed, nil
}

// runBody executes the application logic. Panics unwind to the platform's
// instance recovery (the worker dies, the intent stays pending, and the
// collector retries) — the same outcome a worker crash would have.
func (rt *Runtime) runBody(env *Env, input Value) (Value, error) {
	return rt.body(env, input)
}

// handleAsyncRegister is the callee side of asyncInvoke step 1 (Fig 20):
// log the intent (flagged async, carrying the run envelope for the intent
// collector), confirm to the caller via callback, and return whether the
// confirmation was recorded.
func (rt *Runtime) handleAsyncRegister(inv *platform.Invocation, ev envelope) (Value, error) {
	// The stored run envelope keeps the app scope and the promise reply
	// coordinates, so a collector-restarted execution behaves exactly like
	// the directly fired one — including posting its result back.
	runEv := envelope{Kind: kindAsyncRun, InstanceID: ev.InstanceID, Input: ev.Input, Async: true,
		App: ev.App, ReplyFn: ev.ReplyFn, ReplyOwner: ev.ReplyOwner, ReplyStep: ev.ReplyStep}
	if _, err := rt.ensureIntent(ev.InstanceID, runEv); err != nil {
		return dynamo.Null, err
	}
	inv.CrashPoint("async:registered", "")
	if rt.cfg.DisableCallbacks {
		return dynamo.Bool(false), nil
	}
	_, confirmed, err := rt.issueCallback(ev.CallerFn, ev.CallerInstance, ev.CallerStep, ev.InstanceID, dynamo.S("registered"), false)
	return dynamo.Bool(confirmed), err
}

// handleAsyncRun is the callee side of asyncInvoke step 2 (Fig 20): run the
// body only if the intent is registered and incomplete, so that re-deliveries
// and GC-pruned intents are skipped.
func (rt *Runtime) handleAsyncRun(inv *platform.Invocation, ev envelope) (Value, error) {
	intent, exists, err := rt.loadIntent(ev.InstanceID)
	if err != nil || !exists || intent.done {
		return dynamo.Null, err
	}
	// The intent was registered by asyncInvoke step 1, so fresh never holds
	// here; a collector restart is visible as an advanced LastLaunch. The
	// causal parent of an async run is the promise's reply owner (plain
	// AsyncInvoke callees are linked through the caller's async span).
	parentEv := intent.args
	if parentEv.CallerInstance == "" && parentEv.ReplyOwner != "" {
		parentEv.CallerInstance = parentEv.ReplyOwner
	}
	obs := rt.beginExec(ev.InstanceID, parentEv, intent.lastLaunch > intent.startTime)
	defer obs.finish()
	env := newEnv(rt, inv, ev.InstanceID, intent, ev.App)
	ret, err := rt.runBody(env, ev.Input)
	if err == nil {
		err = env.flushReads("return")
	}
	if err != nil {
		obs.complete(err)
		return dynamo.Null, err
	}
	inv.CrashPoint("body:done", "")
	// Post the promise result BEFORE done-marking (the same Fig 9 ordering
	// as callbacks): once the intent is done it can be collected, so the
	// result must already sit durably in the caller's invoke-log row. A crash
	// in between re-runs this intent, which replays the identical result and
	// re-posts it into the row the first post already filled — a no-op.
	if ev.ReplyFn != "" {
		if err := rt.postPromise(ev, ret); err != nil {
			perr := fmt.Errorf("core: %s: promise post to %s failed: %w", rt.fn, ev.ReplyFn, err)
			obs.complete(perr)
			return dynamo.Null, perr
		}
		inv.CrashPoint("promise:posted", "")
	}
	if err := rt.markIntentDone(ev.InstanceID, ret); err != nil {
		obs.complete(err)
		return dynamo.Null, err
	}
	obs.complete(nil)
	return ret, nil
}
