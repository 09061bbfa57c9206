package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Durable promises extend the paper's fire-and-forget asyncInvoke (§4.5,
// Fig 20) into fan-out/fan-in: AsyncInvokePromise registers the callee
// intent exactly as AsyncInvoke does, but stamps reply coordinates on the
// registered envelope so that EVERY eventual execution of the callee —
// fired directly or restarted by its intent collector — posts its result into the caller's invoke-log row of
// the call, the row that already names the callee: a single-assignment
// Posted attribute (handlePromisePost). The result therefore lives and dies
// with the log of the instance that may await it, and needs no store, no
// liveness probe and no collector of its own. Await is a logged step on the
// caller, so a crashed and re-executed awaiter observes the identical
// result, and a crashed callee re-posts the identical (deterministically
// replayed) value into a row the first post already filled. Fan-out/fan-in
// therefore survives crashes on either side without ever weakening
// exactly-once.

// ErrAwaitTimeout reports that an Await exhausted its wait budget before
// the promise's result was posted. The awaiting instance fails; the intent
// collector re-executes it later, by which time the callee (driven by its
// own collector) has usually completed.
var ErrAwaitTimeout = errors.New("core: promise await: result not posted in time")

// Promise is a durable handle on an asynchronously invoked SSF's result.
// The id is the callee's instance id — minted exactly once in the caller's
// invoke log — and step the key of that invoke-log row, so a re-executed
// caller reconstructs the same Promise and awaits the same row. Promises are
// created by Env.AsyncInvokePromise and resolved by Promise.Await; they must
// be awaited by the instance that created them (the result is collected with
// the creator's invoke log).
type Promise struct {
	callee string
	id     string
	step   string

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
// into this instance's invoke log no matter which execution path finishes
// the intent. Not supported inside transactions (AsyncInvoke's §6.2
// restriction applies unchanged). In ModeBaseline the promise is a plain
// in-memory future with none of the durability.
func (e *Env) AsyncInvokePromise(callee string, input Value) (*Promise, error) {
	e.rt.stats.PromiseCalls.Add(1)
	if e.rt.mode == ModeBaseline {
		ch := make(chan baselineResult, 1)
		e.crash("ainvoke", "")
		go func() {
			out, err := e.rt.plat.InvokeInternal(callee, envelope{Kind: kindCall, Input: input, App: e.shared.app}.encode())
			ch <- baselineResult{out, err}
		}()
		return &Promise{callee: callee, ch: ch}, nil
	}
	if e.inExecute() {
		return nil, ErrAsyncInTxn
	}
	id, step, err := e.asyncInvoke(callee, input, true)
	if err != nil {
		return nil, err
	}
	return &Promise{callee: callee, id: id, step: step}, nil
}

// Await blocks until the promise's result is durably posted and returns it
// as a logged step: the first resolution queues the value for the read log
// under this step's key (durable at the instance's next effect boundary, see
// readlog.go), and every re-execution returns the recorded value. Waits
// respect the execution's context (Env.Context) and the platform's crash
// points, and give up with ErrAwaitTimeout after the configured budget
// (Config.AwaitRetryMax) — failing the instance, not the workflow: the
// intent collector retries the await later. An Await inside Env.AwaitAll
// waits for the whole fan-in at once; see there.
func (p *Promise) Await(e *Env) (Value, error) { return p.await(e, nil) }

// await is Await for a promise that rest, the later promises of a fan-in,
// follow: if it has to wait at all, it waits until every one of them is
// posted too, so their Awaits are answered from the cache.
func (p *Promise) await(e *Env, rest []*Promise) (Value, error) {
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
	e.crash("await:pre:", stepKey)

	// Replay: this await already resolved in a previous execution.
	if val, replay, err := e.replayedRead(stepKey); err != nil || replay {
		e.awaitSpan(t0, stepKey, p, replay, err)
		return val, err
	}

	// Wait for the callee's post. Results land in this instance's own
	// invoke-log partition, so the awaiter parks on a storage.Waiter over
	// that partition, armed before each fetch: a post landing between fetch
	// and wait still wakes it. A fetch that leaves m of the fan-in's results
	// missing is followed by a wait for m commits on the partition (see
	// skipUntil); the exponential-backoff timer bounds every wait, and each
	// expiry re-fetches — a lost or coalesced wakeup costs one backoff
	// period, never the result. Only a wait that ended on its timer draws
	// down the budget: a wake-up is commits on the partition — in a fan-in,
	// posts — and charging for it would time out an await whose own callee
	// merely finishes last. And a fetch that finds a result refills it, so
	// the budget is per missing result, as it is for a lone Await: a fan-in
	// whose results trickle in may take longer than one budget in all.
	resolved := func(val Value) (Value, error) {
		e.queueRead(stepKey, val)
		e.awaitSpan(t0, stepKey, p, false, nil)
		e.crash("await:post:", stepKey)
		return val, nil
	}
	posted := e.shared.postedResults()
	if val, ok := posted.get(p.step); ok {
		return resolved(val)
	}
	want := []*Promise{p}
	for _, q := range rest {
		if q.id != "" { // a zero Promise: its own Await reports the error
			want = append(want, q)
		}
	}
	w := storage.NewWaiter(e.rt.store, e.rt.invokeLog, dynamo.S(e.instanceID), e.rt.clk)
	defer w.Close()
	ctx := e.Context()
	backoff := e.rt.cfg.LockRetryBase
	for timeouts := 0; timeouts < e.rt.cfg.AwaitRetryMax; {
		w.Arm()
		missing, err := posted.fetch(e, want)
		if err != nil {
			return dynamo.Null, err
		}
		if len(missing) < len(want) {
			timeouts = 0
		}
		if want = missing; len(want) == 0 {
			val, _ := posted.get(p.step)
			return resolved(val)
		}
		e.crash("await:poll:", stepKey)
		switch w.Wait(backoff, ctx.Done(), skipUntil(len(want))) {
		case storage.WakeCancel:
			// Nothing was logged for this step, so the re-execution repeats
			// the await from scratch against the same row.
			e.awaitSpan(t0, stepKey, p, false, ctx.Err())
			return dynamo.Null, fmt.Errorf("core: await %s (%s): %w", p.id, p.callee, ctx.Err())
		case storage.WakeTimer:
			timeouts++
			backoff = e.rt.nextBackoff(backoff)
		}
	}
	e.awaitSpan(t0, stepKey, p, false, ErrAwaitTimeout)
	return dynamo.Null, fmt.Errorf("%w: %s (%s) after %d waits", ErrAwaitTimeout, want[0].id, want[0].callee, e.rt.cfg.AwaitRetryMax)
}

// skipUntil returns the skip of a wait for m missing results: it claims the
// first m−1 commit events on the partition, so the wait wakes on the m-th —
// each missing result commits one post after the fetch, so no earlier event
// can complete the fan-in; another commit (a Parallel sibling's call) only
// wakes it one post early. It counts only while m is below the watch
// buffer, so that no skip loses a wake-up: a subscription buffers
// storage.DefaultWatchBuffer events and coalesces later ones into those
// pending, and a skip that claims fewer events than that leaves a full
// buffer holding one it does not claim. A bigger fan-in wakes on its first
// event.
func skipUntil(m int) func(storage.CommitEvent) bool {
	if m < 2 || m >= storage.DefaultWatchBuffer {
		return nil
	}
	skips := m - 1
	return func(storage.CommitEvent) bool {
		skips--
		return skips >= 0
	}
}

// postedResults caches the promise results an execution has fetched, by the
// invoke-log step of the call, shared by its Parallel branches. A posted
// result is single-assignment, so a cached one is final.
type postedResults struct {
	mu   sync.Mutex
	vals map[string]Value
}

// postedResults returns the instance's cache, allocating it on first use:
// most instances await nothing.
func (sh *envShared) postedResults() *postedResults {
	if c := sh.posted.Load(); c != nil {
		return c
	}
	sh.posted.CompareAndSwap(nil, &postedResults{})
	return sh.posted.Load()
}

func (c *postedResults) get(step string) (Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vals[step]
	return v, ok
}

// fetch reads, in one query of the instance's invoke-log partition, every
// result posted so far for the calls logged at the earliest step of ps or a
// later one — in a fan-in the earlier ones have been awaited already —
// caches them all, and returns the promises of ps still unposted, in place.
func (c *postedResults) fetch(e *Env, ps []*Promise) ([]*Promise, error) {
	from := slices.MinFunc(ps, func(a, b *Promise) int { return strings.Compare(a.step, b.step) }).step
	rows, err := e.rt.store.Query(e.rt.invokeLog, dynamo.S(e.instanceID), dynamo.QueryOpts{
		Filter:     dynamo.And(postedPresent, dynamo.Ge(dynamo.A(attrStep), dynamo.S(from))),
		Projection: []dynamo.Path{dynamo.A(attrStep), dynamo.A(attrPosted)},
	})
	if err != nil {
		return ps, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.vals == nil {
		c.vals = make(map[string]Value, len(rows))
	}
	for _, it := range rows {
		c.vals[it[attrStep].Str()] = it[attrPosted]
	}
	missing := ps[:0]
	for _, p := range ps {
		if _, ok := c.vals[p.step]; !ok {
			missing = append(missing, p)
		}
	}
	return missing, nil
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
// the same order — the fan-in half of fan-out/fan-in. Each promise's Await
// is its own logged step, so the fan-in replays deterministically; the
// fan-out itself already runs concurrently. The first Await that has to
// wait waits for all the promises after it as well, and pays two fetches of
// the invoke-log partition when the results trickle in — one before the
// wait, one after the last post — instead of one per wake-up; the Awaits
// after it are answered from the cache. The first error aborts the
// remaining awaits.
func (e *Env) AwaitAll(ps ...*Promise) ([]Value, error) {
	outs := make([]Value, len(ps))
	for i, p := range ps {
		v, err := p.await(e, ps[i+1:])
		if err != nil {
			return nil, err
		}
		outs[i] = v
	}
	return outs, nil
}

// postPromise delivers a completed async intent's result to the caller's
// invoke-log row named by ev's reply coordinates, as a promisePost invocation
// routed like a callback (§4.5): at-least-once delivery into a
// first-write-wins attribute.
func (rt *Runtime) postPromise(ev envelope, result Value) error {
	post := envelope{
		Kind:       kindPromisePost,
		CalleeID:   ev.InstanceID,
		ReplyFn:    ev.ReplyFn,
		ReplyOwner: ev.ReplyOwner,
		ReplyStep:  ev.ReplyStep,
		Result:     result,
		HasRes:     true,
	}
	_, err := rt.plat.InvokeInternal(ev.ReplyFn, post.encode())
	return err
}

// handlePromisePost is the caller-side post handler: ONE guarded update of
// the invoke-log row that logged the call. The row's existence is the
// owner-liveness check — the collector deletes an instance's invoke log
// before its intent, so a post for a collected owner is refused atomically,
// resurrects nothing and leaves nothing to reap; the callee id guards against
// a foreign post like a spurious callback; and Posted is single-assignment,
// so a re-executed callee's second post is a no-op. A refused post reads
// nothing back: which of the three refused it makes no difference to the
// callee, which completes either way.
func (rt *Runtime) handlePromisePost(ev envelope) (Value, error) {
	err := rt.store.Update(rt.invokeLog, dynamo.HSK(dynamo.S(ev.ReplyOwner), dynamo.S(ev.ReplyStep)),
		dynamo.And(
			idPresent,
			dynamo.Eq(dynamo.A(attrCalleeID), dynamo.S(ev.CalleeID)),
			postedAbsent,
		),
		dynamo.Set(dynamo.A(attrPosted), ev.Result))
	switch {
	case err == nil:
		rt.stats.PromisePosts.Add(1)
	case errors.Is(err, dynamo.ErrConditionFailed):
		rt.stats.PromisePostsRefused.Add(1)
		err = nil
	}
	return dynamo.Null, err
}
