package core

import (
	"errors"
	"fmt"

	"repro/internal/dynamo"
	"repro/internal/telemetry"
)

// Durable promises extend the paper's fire-and-forget asyncInvoke (§4.5,
// Fig 20) into fan-out/fan-in: AsyncInvokePromise registers the callee
// intent exactly as AsyncInvoke does, but stamps reply coordinates on the
// registered envelope so that EVERY eventual execution of the callee —
// fired directly, redelivered by a durable queue, or restarted by its
// intent collector — posts its result into the caller SSF's mailbox (a
// single-assignment durable cell keyed by the promise id; see
// queue.Mailbox). Await is a logged step on the caller, so a crashed and
// re-executed awaiter observes the identical result, and a crashed callee
// re-posts the identical (deterministically replayed) value into a cell
// the first post already owns. Fan-out/fan-in therefore survives crashes
// on either side without ever weakening exactly-once.

// ErrAwaitTimeout reports that an Await exhausted its poll budget before
// the promise's result was posted. The awaiting instance fails; the intent
// collector re-executes it later, by which time the callee (driven by its
// own collector) has usually completed.
var ErrAwaitTimeout = errors.New("core: promise await: result not posted in time")

// Promise is a durable handle on an asynchronously invoked SSF's result.
// The id is the callee's instance id — minted exactly once in the caller's
// invoke log — so a re-executed caller reconstructs the same Promise and
// awaits the same cell. Promises are created by Env.AsyncInvokePromise and
// resolved by Promise.Await; they must be awaited by the instance that
// created them (the cell is reaped with the creator's intent).
type Promise struct {
	callee string
	id     string

	// Baseline mode has no durable machinery; the promise is an in-memory
	// future fed by a goroutine.
	ch <-chan baselineResult

	resolved bool
	val      Value
	err      error
}

type baselineResult struct {
	val Value
	err error
}

// ID returns the promise id (the callee's instance id), or "" for
// baseline-mode promises.
func (p *Promise) ID() string { return p.id }

// Callee returns the invoked function's name.
func (p *Promise) Callee() string { return p.callee }

// AsyncInvokePromise starts callee asynchronously, like AsyncInvoke, and
// returns a durable Promise for its result. The callee's registered intent
// carries this caller's reply coordinates, so completion posts the result
// into this SSF's mailbox no matter which execution path finishes the
// intent. Not supported inside transactions (AsyncInvoke's §6.2
// restriction applies unchanged). In ModeBaseline the promise is a plain
// in-memory future with none of the durability.
func (e *Env) AsyncInvokePromise(callee string, input Value) (*Promise, error) {
	e.rt.stats.PromiseCalls.Add(1)
	if e.rt.mode == ModeBaseline {
		ch := make(chan baselineResult, 1)
		e.crash("ainvoke")
		go func() {
			out, err := e.rt.plat.InvokeInternal(callee, envelope{Kind: kindCall, Input: input, App: e.shared.app}.encode())
			ch <- baselineResult{out, err}
		}()
		return &Promise{callee: callee, ch: ch}, nil
	}
	if e.inExecute() {
		return nil, ErrAsyncInTxn
	}
	id, err := e.asyncInvoke(callee, input, e.rt.fn, e.instanceID)
	if err != nil {
		return nil, err
	}
	return &Promise{callee: callee, id: id}, nil
}

// Await blocks until the promise's result is durably posted and returns it
// as a logged step: the first resolution queues the value for the read log
// under this step's key (durable at the instance's next effect boundary, see
// readlog.go), and every re-execution returns the recorded value. Polls
// respect the execution's context (Env.Context) and the platform's crash
// points, and give up with ErrAwaitTimeout after the configured budget
// (Config.AwaitRetryMax) — failing the instance, not the workflow: the
// intent collector retries the await later.
func (p *Promise) Await(e *Env) (Value, error) {
	e.rt.stats.Awaits.Add(1)
	if p.resolved {
		return p.val, p.err
	}
	if p.ch != nil {
		r := <-p.ch
		p.resolved, p.val, p.err = true, r.val, r.err
		return p.val, p.err
	}
	if p.id == "" {
		return dynamo.Null, fmt.Errorf("core: await: promise has no id (zero Promise?)")
	}

	stepKey := e.nextStepKey()
	t0 := e.rt.spanClock()
	e.crash("await:pre:" + stepKey)

	// Replay: this await already resolved in a previous execution.
	if val, replay, err := e.replayedRead(stepKey); err != nil || replay {
		e.awaitSpan(t0, stepKey, p, replay, err)
		return val, err
	}

	// Wait for the callee's post. With a push-capable store the awaiter
	// subscribes to the cell's commit stream before the first fetch (so a
	// post landing between fetch and wait still wakes it) and blocks on the
	// subscription; the exponential-backoff timer stays armed underneath as
	// the liveness fallback, and each fallback expiry re-fetches — a lost or
	// coalesced wakeup costs one backoff period, never the result. Without
	// push the loop is the classic poll-with-backoff.
	sub, _ := e.rt.mailbox.Watch(p.id)
	if sub != nil {
		defer sub.Close()
	}
	backoff := e.rt.cfg.LockRetryBase
	for attempt := 0; attempt < e.rt.cfg.AwaitRetryMax; attempt++ {
		val, posted, err := e.rt.mailbox.Fetch(p.id)
		if err != nil {
			return dynamo.Null, err
		}
		if posted {
			e.queueRead(stepKey, val)
			e.awaitSpan(t0, stepKey, p, false, nil)
			e.crash("await:post:" + stepKey)
			return val, nil
		}
		e.crash("await:poll:" + stepKey)
		if sub != nil {
			if werr := e.Context().Err(); werr == nil {
				sub.Wait(backoff, e.Context().Done())
			}
			if werr := e.Context().Err(); werr != nil {
				// Canceled mid-wait: nothing was logged for this step, so the
				// re-execution repeats the await from scratch against the
				// same cell.
				e.awaitSpan(t0, stepKey, p, false, werr)
				return dynamo.Null, fmt.Errorf("core: await %s (%s): %w", p.id, p.callee, werr)
			}
		} else if werr := e.waitRetry(backoff); werr != nil {
			e.awaitSpan(t0, stepKey, p, false, werr)
			return dynamo.Null, fmt.Errorf("core: await %s (%s): %w", p.id, p.callee, werr)
		}
		if backoff < 128*e.rt.cfg.LockRetryBase {
			backoff *= 2
		}
	}
	e.awaitSpan(t0, stepKey, p, false, ErrAwaitTimeout)
	return dynamo.Null, fmt.Errorf("%w: %s (%s) after %d polls", ErrAwaitTimeout, p.id, p.callee, e.rt.cfg.AwaitRetryMax)
}

// awaitSpan records the telemetry span of one Await: the causal edge to
// the awaited promise's callee intent. No-op without a hub.
func (e *Env) awaitSpan(t0 int64, stepKey string, p *Promise, replay bool, err error) {
	if e.rt.tel == nil {
		return
	}
	s := telemetry.Span{
		Intent: e.instanceID, Step: stepKey, Kind: telemetry.KindAwait,
		Fn: e.rt.fn, Name: p.callee, Child: p.id,
		Start: t0, End: e.rt.clk.Now().UnixNano(), Replay: replay,
	}
	if err != nil {
		s.Err = err.Error()
	}
	e.rt.tel.Tracer.Record(s)
}

// AwaitAll resolves every promise, in order, and returns their values in
// the same order — the fan-in half of fan-out/fan-in. Resolution is
// sequential so the logged steps replay deterministically; the fan-out
// itself already runs concurrently. The first error aborts the remaining
// awaits.
func (e *Env) AwaitAll(ps ...*Promise) ([]Value, error) {
	outs := make([]Value, len(ps))
	for i, p := range ps {
		v, err := p.Await(e)
		if err != nil {
			return nil, err
		}
		outs[i] = v
	}
	return outs, nil
}

// postPromise delivers a completed async intent's result to the reply
// function's mailbox, as a promisePost invocation routed like a callback
// (§4.5): at-least-once delivery into a first-write-wins cell.
func (rt *Runtime) postPromise(replyFn, replyOwner, promiseID string, result Value) error {
	ev := envelope{
		Kind:       kindPromisePost,
		CalleeID:   promiseID,
		ReplyFn:    replyFn,
		ReplyOwner: replyOwner,
		Result:     result,
		HasRes:     true,
	}
	_, err := rt.plat.InvokeInternal(replyFn, ev.encode())
	return err
}

// handlePromisePost is the caller-side post handler: deposit the result in
// this SSF's mailbox, first write wins. Posts owned by an intent that no
// longer exists (already garbage-collected, so no awaiter can remain) are
// dropped like spurious callbacks; the GC also reaps any cell that slips
// through this check racily.
func (rt *Runtime) handlePromisePost(ev envelope) (Value, error) {
	exists, _, _, err := rt.intentDone(ev.ReplyOwner)
	if err != nil {
		return dynamo.Null, err
	}
	if !exists {
		rt.stats.SpuriousCallback.Add(1)
		return dynamo.Null, nil
	}
	if err := rt.mailbox.Post(ev.CalleeID, ev.ReplyOwner, ev.Result); err != nil {
		return dynamo.Null, err
	}
	rt.stats.PromisePosts.Add(1)
	return dynamo.Null, nil
}
