package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
)

// Durable promises: AsyncInvokePromise fans work out as registered intents
// whose completions post into the caller's invoke-log row of the call; Await
// is a logged step. These tests pin the fan-out/fan-in exactly-once story
// across crashes on the awaiting side, the posted result's single-assignment
// discipline, its GC/fsck lifecycle, and the await's cache and wait budget.

// fanWorkerBody returns a worker that bumps a per-index counter (the
// exactly-once witness) and returns a value containing a token drawn from
// seq — unique per physical execution, so identical observed results can
// only come from the durable posted result, never from silent re-execution.
func fanWorkerBody(seq *atomic.Int64) Body {
	return func(e *Env, in Value) (Value, error) {
		idx := in.Int()
		key := fmt.Sprintf("n%02d", idx)
		v, err := e.Read("count", key)
		if err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("count", key, dynamo.NInt(v.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		return dynamo.M(map[string]Value{
			"Idx":   dynamo.NInt(idx),
			"Token": dynamo.NInt(seq.Add(1)),
		}), nil
	}
}

func TestPromiseFanOutFanIn(t *testing.T) {
	f := newFixture(t)
	var seq atomic.Int64
	f.fn("work", fanWorkerBody(&seq), "count")
	const width = 8
	f.fn("driver", func(e *Env, in Value) (Value, error) {
		ps := make([]*Promise, width)
		for i := 0; i < width; i++ {
			p, err := e.AsyncInvokePromise("work", dynamo.NInt(int64(i)))
			if err != nil {
				return dynamo.Null, err
			}
			ps[i] = p
		}
		outs, err := e.AwaitAll(ps...)
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.L(outs...), nil
	})

	out := f.mustInvoke("driver", dynamo.Null)
	f.plat.Drain()
	l := out.List()
	if len(l) != width {
		t.Fatalf("awaited %d results, want %d: %v", len(l), width, out)
	}
	for i, v := range l {
		if idx, _ := v.MapGet("Idx"); idx.Int() != int64(i) {
			t.Errorf("result %d = %v (order broken)", i, v)
		}
	}
	for i := 0; i < width; i++ {
		if got := f.readData("work", "count", fmt.Sprintf("n%02d", i)); got.Int() != 1 {
			t.Errorf("worker %d ran %v times, want 1", i, got)
		}
	}
	for _, rt := range f.rts {
		if err := Fsck(rt); err != nil {
			t.Errorf("fsck %s: %v", rt.fn, err)
		}
	}
}

// TestPromiseCrashAndReplayExactlyOnce is the acceptance scenario: a
// workflow fans out 8 async invocations, crashes after awaiting some of
// them, and the collector-driven re-execution observes the identical
// promise results while every worker's effect lands exactly once.
func TestPromiseCrashAndReplayExactlyOnce(t *testing.T) {
	const width = 8
	// Crash the driver mid-fan-in at deterministic step boundaries: the
	// fan-out consumes step keys 1–8, so await i's logged step is key 9+i.
	// Crashing at await:pre of step 12 kills the driver after 3 awaits
	// resolved; await:post of step 16 after the whole fan-in; flush of step 9
	// at the aggregate write's boundary, with all 8 results fetched and none
	// of them logged yet.
	for _, label := range []string{"await:pre:0.000012", "await:post:0.000016", "flush:0.000009"} {
		t.Run(label, func(t *testing.T) {
			f := newFixture(t, withFaults(&platform.CrashOnce{Function: "driver", Label: label}))
			var seq atomic.Int64
			f.fn("work", fanWorkerBody(&seq), "count")

			// observed records, per driver execution, the results each Await
			// resolved — the cross-execution identity witness.
			var mu sync.Mutex
			observed := make(map[int][]Value) // await index -> one entry per execution that resolved it
			f.fn("driver", func(e *Env, in Value) (Value, error) {
				ps := make([]*Promise, width)
				for i := 0; i < width; i++ {
					p, err := e.AsyncInvokePromise("work", dynamo.NInt(int64(i)))
					if err != nil {
						return dynamo.Null, err
					}
					ps[i] = p
				}
				outs := make([]Value, width)
				for i, p := range ps {
					v, err := p.Await(e)
					if err != nil {
						return dynamo.Null, err
					}
					mu.Lock()
					observed[i] = append(observed[i], v)
					mu.Unlock()
					outs[i] = v
				}
				if err := e.Write("agg", "results", dynamo.L(outs...)); err != nil {
					return dynamo.Null, err
				}
				return dynamo.L(outs...), nil
			}, "agg")

			if _, err := f.invoke("driver", dynamo.Null); err == nil {
				t.Fatal("injected crash did not surface")
			}
			f.plat.Drain()
			f.recoverAll()

			// Every worker's effect exactly once.
			for i := 0; i < width; i++ {
				if got := f.readData("work", "count", fmt.Sprintf("n%02d", i)); got.Int() != 1 {
					t.Errorf("worker %d ran %v times, want 1", i, got)
				}
			}
			// Each award index resolved at least once across executions, at
			// least one index resolved twice (pre- and post-crash), and all
			// resolutions of one index saw the same token — the posted value,
			// not a re-computation.
			mu.Lock()
			replayedSome := false
			for i := 0; i < width; i++ {
				vals := observed[i]
				if len(vals) == 0 {
					t.Errorf("await %d never resolved", i)
					continue
				}
				if len(vals) > 1 {
					replayedSome = true
				}
				for _, v := range vals[1:] {
					if !v.Equal(vals[0]) {
						t.Errorf("await %d observed diverging results: %v vs %v", i, vals[0], v)
					}
				}
			}
			mu.Unlock()
			if !replayedSome {
				t.Error("crash injected but no await was replayed; crash point landed outside the fan-in")
			}
			// The aggregate write happened exactly once and matches what the
			// awaits observed.
			agg := f.readData("driver", "agg", "results")
			if len(agg.List()) != width {
				t.Errorf("aggregate = %v", agg)
			}
			mu.Lock()
			for i, v := range agg.List() {
				if len(observed[i]) > 0 && !v.Equal(observed[i][0]) {
					t.Errorf("aggregate[%d] = %v, observed %v", i, v, observed[i][0])
				}
			}
			mu.Unlock()
			for _, rt := range f.rts {
				if err := Fsck(rt); err != nil {
					t.Errorf("fsck %s: %v", rt.fn, err)
				}
			}
		})
	}
}

// TestPromiseCalleeCrashReposts crashes the CALLEE after its body but
// before the promise post; the callee's collector re-execution must replay
// the identical result, post it, and the awaiting caller must see exactly
// one value.
func TestPromiseCalleeCrashReposts(t *testing.T) {
	f := newFixture(t, withFaults(&platform.CrashOnce{Function: "work", Label: "body:done"}))
	var seq atomic.Int64
	f.fn("work", fanWorkerBody(&seq), "count")
	// Buffered: the driver's send below does not block, so without a slot it
	// is lost whenever the driver gets there before the test is receiving.
	done := make(chan struct{}, 1)
	f.fn("driver", func(e *Env, in Value) (Value, error) {
		p, err := e.AsyncInvokePromise("work", dynamo.NInt(7))
		if err != nil {
			return dynamo.Null, err
		}
		// The callee crashes at body:done; its collector must finish it
		// before the await can resolve — drive collection from a helper
		// goroutine while this await polls.
		select {
		case done <- struct{}{}:
		default:
		}
		return p.Await(e)
	})

	var out Value
	var err error
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		out, err = f.invoke("driver", dynamo.Null)
	}()
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case <-finished:
		default:
			if time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
				for _, rt := range f.rts {
					rt.RunIntentCollector() //nolint:errcheck // next round retries
				}
				continue
			}
		}
		break
	}
	<-finished
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	if idx, _ := out.MapGet("Idx"); idx.Int() != 7 {
		t.Errorf("out = %v", out)
	}
	if got := f.readData("work", "count", "n07"); got.Int() != 1 {
		t.Errorf("worker effect ran %v times, want 1", got)
	}
}

// postedRows lists rt's invoke-log rows that hold a posted promise result.
func postedRows(t *testing.T, f *fixture, rt *Runtime) []dynamo.Item {
	t.Helper()
	rows, err := f.store.Scan(rt.invokeLog, dynamo.QueryOpts{Filter: dynamo.Exists(dynamo.A(attrPosted))})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// fsckAll fails the test on any structural violation in any runtime.
func (f *fixture) fsckAll() {
	f.t.Helper()
	for _, rt := range f.rts {
		if err := Fsck(rt); err != nil {
			f.t.Errorf("fsck %s: %v", rt.fn, err)
		}
	}
}

// TestPromiseResultDiesWithOwnersInvokeLog pins the result's lifecycle: it
// survives while the owning intent lives (a replayed awaiter may still need
// it) and dies with the owner's invoke-log partition, in the same GC horizon
// as the owner — there is nothing else to reap.
func TestPromiseResultDiesWithOwnersInvokeLog(t *testing.T) {
	f := newFixture(t, withConfig(Config{RowCap: 4, T: 30 * time.Millisecond, ICMinAge: time.Millisecond}))
	var seq atomic.Int64
	f.fn("work", fanWorkerBody(&seq), "count")
	driver := f.fn("driver", func(e *Env, in Value) (Value, error) {
		p, err := e.AsyncInvokePromise("work", dynamo.NInt(1))
		if err != nil {
			return dynamo.Null, err
		}
		return p.Await(e)
	})
	out := f.mustInvoke("driver", dynamo.Null)
	f.plat.Drain()

	rows := postedRows(t, f, driver)
	if len(rows) != 1 || !rows[0][attrPosted].Equal(out) {
		t.Fatalf("posted results after completion = %v, want the one the driver returned (%v)", rows, out)
	}

	// Two GC passes past T: the first stamps finish times, the second (after
	// the horizon) recycles the intent and takes the row with it.
	f.gcAll()
	time.Sleep(80 * time.Millisecond)
	if st := f.gcAll(); st.LogRowsDeleted == 0 {
		t.Errorf("GC deleted no log rows: %+v", st)
	}
	if n, err := f.store.TableItemCount(driver.invokeLog); err != nil || n != 0 {
		t.Errorf("invoke-log rows after GC = %d (%v), want none", n, err)
	}
	f.fsckAll()
}

// TestPromisePostForCollectedOwnerIsRefused delivers a callee's run after the
// instance that called it was garbage-collected: the post finds no
// invoke-log row, is refused by the store in the one op it costs, and leaves
// nothing behind in any of the owner's tables — fsck is green at once, not
// after another collector pass.
func TestPromisePostForCollectedOwnerIsRefused(t *testing.T) {
	store := dynamo.NewStore()
	f := newFixture(t, withStore(store),
		withConfig(Config{RowCap: 4, T: 30 * time.Millisecond, ICMinAge: time.Hour}))
	var seq atomic.Int64
	work := f.fn("work", fanWorkerBody(&seq), "count")
	driver := f.fn("driver", func(e *Env, in Value) (Value, error) {
		f.held.hold()
		_, err := e.AsyncInvokePromise("work", dynamo.NInt(1))
		return dynamo.Null, err // never awaited: the driver completes at once
	})
	f.mustInvoke("driver", dynamo.Null)

	f.gcAll()
	time.Sleep(80 * time.Millisecond)
	if st := f.gcAll(); st.IntentsDeleted != 1 {
		t.Fatalf("GC deleted %d intents, want the driver's", st.IntentsDeleted)
	}

	runs := f.held.take()
	if len(runs) != 1 {
		t.Fatalf("%d held runs, want 1", len(runs))
	}
	before := store.Metrics().Snapshot()
	runs[0]()
	d := store.Metrics().Snapshot().Sub(before)
	if d.CondFailures != 1 {
		t.Errorf("late run tripped %d store conditions, want 1 (the refused post)", d.CondFailures)
	}
	if st := driver.StatsSnapshot(); st.PromisePosts != 0 || st.PromisePostsRefused != 1 {
		t.Errorf("posts applied/refused = %d/%d, want 0/1", st.PromisePosts, st.PromisePostsRefused)
	}
	intents, err := f.store.Scan(work.intentTable, dynamo.QueryOpts{})
	if err != nil || len(intents) != 1 {
		t.Fatalf("work intents = %v (%v), want the one the late run completed", intents, err)
	}
	if !intents[0][attrDone].BoolVal() {
		t.Error("a refused post must not keep the callee from completing")
	}
	for _, tbl := range store.TableNames() {
		if !strings.HasPrefix(tbl, "driver.") {
			continue
		}
		if n, err := store.TableItemCount(tbl); err != nil || n != 0 {
			t.Errorf("%s holds %d rows (%v) after a post for a collected owner, want none", tbl, n, err)
		}
	}
	f.fsckAll()
}

// TestPromiseDuplicatePostKeepsFirstValue re-executes both sides: the callee
// dies right after posting and its re-execution — whose result carries a new
// token — posts again; the awaiter dies with its resolved await not logged
// yet and awaits again. The row keeps the first value, and that is what both
// awaits see.
func TestPromiseDuplicatePostKeepsFirstValue(t *testing.T) {
	f := newFixture(t,
		withFaults(&platform.CrashOnce{Function: "work", Label: "promise:posted"}),
		withFaults(&platform.CrashOnce{Function: "driver", Label: "flush:0.000002"}))
	var seq atomic.Int64
	f.fn("work", fanWorkerBody(&seq), "count")
	var mu sync.Mutex
	var observed []int64
	driver := f.fn("driver", func(e *Env, in Value) (Value, error) {
		p, err := e.AsyncInvokePromise("work", dynamo.NInt(7))
		if err != nil {
			return dynamo.Null, err
		}
		v, err := p.Await(e)
		if err == nil {
			tok, _ := v.MapGet("Token")
			mu.Lock()
			observed = append(observed, tok.Int())
			mu.Unlock()
		}
		return v, err
	})
	if _, err := f.invoke("driver", dynamo.Null); err == nil {
		t.Fatal("driver survived its crash point")
	}
	f.plat.Drain()
	f.recoverAll()

	// The collector re-executes the callee, and the re-executed driver may
	// fire its run once more before that completes.
	reruns := seq.Load() - 1
	if reruns < 1 {
		t.Fatal("the worker body was never re-executed")
	}
	if st := driver.StatsSnapshot(); st.PromisePosts != 1 || st.PromisePostsRefused != reruns {
		t.Errorf("posts applied/refused = %d/%d, want 1/%d", st.PromisePosts, st.PromisePostsRefused, reruns)
	}
	rows := postedRows(t, f, driver)
	if len(rows) != 1 {
		t.Fatalf("posted rows = %v, want 1", rows)
	}
	if tok, _ := rows[0][attrPosted].MapGet("Token"); tok.Int() != 1 {
		t.Errorf("row holds token %d, want the first post's 1", tok.Int())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) != 2 || observed[0] != 1 || observed[1] != 1 {
		t.Errorf("awaits observed tokens %v, want the first value twice", observed)
	}
	if got := f.readData("work", "count", "n07"); got.Int() != 1 {
		t.Errorf("worker effect ran %v times, want 1", got)
	}
	f.fsckAll()
}

// inOrder awaits a fan-out one promise after the other, on the root branch.
func inOrder(e *Env, ps []*Promise) ([]Value, error) { return e.AwaitAll(ps...) }

// heldFanOut registers a driver that fans width promises out with their
// runs held (fixture.held), calls beforeAwait with the held runs — post runs one of them to
// completion, posting its result — and then awaits the promises with await.
func heldFanOut(f *fixture, width int, beforeAwait func(runs []queuedRun, post func(queuedRun)),
	await func(*Env, []*Promise) ([]Value, error)) {
	post := func(run queuedRun) { run() }
	f.fn("driver", func(e *Env, in Value) (Value, error) {
		f.held.hold()
		ps := make([]*Promise, width)
		for i := range ps {
			p, err := e.AsyncInvokePromise("leaf", dynamo.NInt(int64(i)))
			if err != nil {
				return dynamo.Null, err
			}
			ps[i] = p
		}
		beforeAwait(f.held.take(), post)
		outs, err := await(e, ps)
		return dynamo.L(outs...), err
	})
	f.fn("leaf", func(e *Env, in Value) (Value, error) { return in, nil })
}

// checkFanIn fails the test unless out is the width results, in order.
func checkFanIn(t *testing.T, out Value, width int) {
	t.Helper()
	if len(out.List()) != width {
		t.Errorf("awaited %d results, want %d", len(out.List()), width)
	}
	for i, v := range out.List() {
		if v.Int() != int64(i) {
			t.Errorf("result %d = %v", i, v)
		}
	}
}

// TestAwaitBudgetCountsOnlyTimerWaits is the fan-in that used to time out
// spuriously: 16 promises, a budget of 4, and the first awaited result posted
// last. Every other post wakes the awaiter; none of those wake-ups may draw
// the budget down, and the timer (seconds here) never fires.
func TestAwaitBudgetCountsOnlyTimerWaits(t *testing.T) {
	const width = 16
	f := newFixture(t, withConfig(Config{RowCap: 4, T: DefaultT, ICMinAge: time.Hour,
		LockRetryBase: 5 * time.Second, AwaitRetryMax: 4}))
	heldFanOut(f, width, func(runs []queuedRun, post func(queuedRun)) {
		go func() {
			for i := len(runs) - 1; i >= 0; i-- {
				post(runs[i])
			}
		}()
	}, inOrder)
	checkFanIn(t, f.mustInvoke("driver", dynamo.Null), width)
}

// TestAwaitFromParallelBranchesSharesResults awaits one fan-out from four
// Parallel branches at once while the results arrive, last first: the
// branches share the instance's cache of posted results, so a fetch by one
// answers awaits of the others — and under -race this is the test that
// reaches the cache from several goroutines.
func TestAwaitFromParallelBranchesSharesResults(t *testing.T) {
	const width, branches = 16, 4
	f := newFixture(t, withConfig(Config{RowCap: 4, T: DefaultT, ICMinAge: time.Hour,
		LockRetryBase: 5 * time.Second, AwaitRetryMax: 4}))
	heldFanOut(f, width, func(runs []queuedRun, post func(queuedRun)) {
		go func() {
			for i := len(runs) - 1; i >= 0; i-- {
				post(runs[i])
			}
		}()
	}, func(e *Env, ps []*Promise) ([]Value, error) {
		outs := make([]Value, len(ps))
		fns := make([]func(*Env) error, branches)
		for b := range fns {
			fns[b] = func(be *Env) (err error) {
				for i := b; i < len(ps) && err == nil; i += branches {
					outs[i], err = ps[i].Await(be)
				}
				return err
			}
		}
		return outs, e.Parallel(fns...)
	})
	checkFanIn(t, f.mustInvoke("driver", dynamo.Null), width)
}

// TestAwaitWithoutPostTimesOutOnItsTimer is the other half of the budget
// rule: with no post at all, an await gives up after exactly AwaitRetryMax
// timer waits — one fetch ahead of each.
func TestAwaitWithoutPostTimesOutOnItsTimer(t *testing.T) {
	store := dynamo.NewStore()
	f := newFixture(t, withStore(store), withConfig(Config{RowCap: 4, T: DefaultT, ICMinAge: time.Hour,
		LockRetryBase: 100 * time.Microsecond, AwaitRetryMax: 4}))
	heldFanOut(f, 1, func([]queuedRun, func(queuedRun)) {}, inOrder)
	before := store.Metrics().Snapshot()
	if _, err := f.invoke("driver", dynamo.Null); !errors.Is(err, ErrAwaitTimeout) {
		t.Fatalf("err = %v, want ErrAwaitTimeout", err)
	}
	if q := store.Metrics().Snapshot().Sub(before).Ops["query"]; q != 4 {
		t.Errorf("await issued %d fetches before giving up, want 4 (AwaitRetryMax)", q)
	}
}

// TestFanInTricklingPastOneBudgetCompletes posts a fan-in's 4 results one
// per 3 fetches, each after the third, so the fetch after it is the first
// to find it: 3 timer-ended waits per result but the last, which wakes on
// its post — 11 in all against a budget of 4. A fetch that finds a result
// refills the budget, which is per missing result as for a lone Await, so
// the fan-in completes, after 13 fetches.
func TestFanInTricklingPastOneBudgetCompletes(t *testing.T) {
	const width, every = 4, 3
	var runs []queuedRun
	var post func(queuedRun)
	var fetches int
	w := &fetchHookWatcher{Backend: dynamo.NewStore()}
	w.afterFetch = func(n int, _ storage.Subscription) {
		fetches = n
		if n%every == 0 {
			post(runs[n/every-1])
		}
	}
	f := newFixture(t, withStore(w), withConfig(Config{RowCap: 4, T: DefaultT, ICMinAge: time.Hour,
		LockRetryBase: 100 * time.Microsecond, AwaitRetryMax: 4}))
	heldFanOut(f, width, func(r []queuedRun, p func(queuedRun)) { runs, post = r, p }, inOrder)
	checkFanIn(t, f.mustInvoke("driver", dynamo.Null), width)
	if want := width*every + 1; fetches != want {
		t.Errorf("%d fetches, want %d", fetches, want)
	}
}

// TestAwaitServesOutOfOrderResultsFromCache posts 6 of 8 results — not the
// first — before the driver's first await. One query caches all six; the
// awaits on them cost nothing, and only the two late results need fetches of
// their own. (The fan-in's fetches are the invocation's only queries.)
func TestAwaitServesOutOfOrderResultsFromCache(t *testing.T) {
	const width = 8
	store := dynamo.NewStore()
	f := newFixture(t, withStore(store), withConfig(Config{RowCap: 4, T: DefaultT, ICMinAge: time.Hour,
		LockRetryBase: 5 * time.Second}))
	queries := func() int64 { return store.Metrics().Snapshot().Ops["query"] }
	before := queries()
	heldFanOut(f, width, func(runs []queuedRun, post func(queuedRun)) {
		for _, i := range []int{7, 2, 5, 3, 6, 4} {
			post(runs[i])
		}
		// The two stragglers arrive once the driver has looked for the first.
		go func() {
			for deadline := time.Now().Add(5 * time.Second); queries() == before && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			post(runs[1])
			post(runs[0])
		}()
	}, inOrder)
	checkFanIn(t, f.mustInvoke("driver", dynamo.Null), width)
	if q := queries() - before; q < 2 || q > 3 {
		t.Errorf("8 awaits issued %d queries, want 2 or 3: one that finds six results, one or two for the stragglers", q)
	}
}

// fetchHookWatcher is a push-capable backend that remembers the first
// subscription it hands out and calls afterFetch after each query of that
// subscription's table, with the query's ordinal.
type fetchHookWatcher struct {
	storage.Backend
	afterFetch func(n int, first storage.Subscription)

	mu      sync.Mutex
	first   storage.Subscription
	table   string
	fetches int
}

func (h *fetchHookWatcher) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	sub, err := h.Backend.(storage.Watcher).Watch(table, hash)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil && h.first == nil {
		h.first, h.table = sub, table
	}
	return sub, err
}

func (h *fetchHookWatcher) Query(table string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	rows, err := h.Backend.Query(table, hash, opts)
	h.mu.Lock()
	first, n := h.first, 0
	if first != nil && table == h.table {
		h.fetches++
		n = h.fetches
	}
	h.mu.Unlock()
	if n > 0 {
		h.afterFetch(n, first)
	}
	return rows, err
}

// oneByOne awaits a fan-out one promise after the other, each Await waiting
// for its own result only.
func oneByOne(e *Env, ps []*Promise) ([]Value, error) {
	outs := make([]Value, len(ps))
	for i, p := range ps {
		var err error
		if outs[i], err = p.Await(e); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// TestAwaitResubscribesWhenItsSubscriptionDies loses the await's
// subscription as a dropped remote connection would: an event comes through
// (another promise's post), then the subscription closes, then the awaited
// result is posted. The await must subscribe again at its next fetch and
// wake on the post, not sleep out its 2 s backoff on the dead subscription.
// An Await on its own wakes on the event; a fan-in's wait skips it as one of
// its two posts, and the close then ends the wait that event counted
// towards.
func TestAwaitResubscribesWhenItsSubscriptionDies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		await func(*Env, []*Promise) ([]Value, error)
	}{
		{"AwaitAll", inOrder},
		{"Await", oneByOne},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runs []queuedRun
			var post func(queuedRun)
			w := &fetchHookWatcher{Backend: dynamo.NewStore()}
			w.afterFetch = func(n int, first storage.Subscription) {
				switch n {
				case 1: // the await found nothing: wake it, then drop its subscription
					post(runs[1])
					first.Close()
				case 2:
					post(runs[0])
				}
			}
			f := newFixture(t, withStore(w), withConfig(Config{RowCap: 4, T: DefaultT, ICMinAge: time.Hour,
				LockRetryBase: 2 * time.Second}))
			heldFanOut(f, 2, func(r []queuedRun, p func(queuedRun)) { runs, post = r, p }, tc.await)
			start := time.Now()
			checkFanIn(t, f.mustInvoke("driver", dynamo.Null), 2)
			if el := time.Since(start); el > time.Second {
				t.Errorf("await took %v: it slept out its backoff on a dead subscription", el)
			}
		})
	}
}

// fanInFetches is the fan-in wait's schedule: the invoke-log fetches of a
// driver awaiting n promises once foreign other commits and then the first
// posts of its results have landed on its partition, all after its first
// fetch, each after the driver reacted to the one before. A wait for m
// missing results wakes on the m-th commit, or on the first while m is not
// below the watch buffer.
func fanInFetches(n, foreign, posts int) int {
	fetches, missing, seen := 1, n, 0
	for ev := 1; ev <= foreign+posts; ev++ {
		if seen++; seen < missing && missing < storage.DefaultWatchBuffer {
			continue
		}
		fetches, seen, missing = fetches+1, 0, n-max(0, ev-foreign)
		if missing == 0 {
			break
		}
	}
	return fetches
}

// TestFanInWaitsOnce prices a fan-in whose results trickle in one post at a
// time, the schedule in which every post used to wake the awaiter for a
// fetch and the next Await fetched again: 2n fetches. The fan-in now waits
// once, for all of them: 2 fetches, one that finds nothing and one after the
// last post. At 64 or more missing the wait wakes on every post (a coalesced
// event must still be followed by a wake-up), so 100 promises cost 37
// wake-ups before the last 63 are counted in one wait. A Parallel sibling's
// call commits on the same partition during the wait — its row, then its
// callee's result — and the wait, counting those as posts, wakes two posts
// early: one fetch more, and no result lost.
func TestFanInWaitsOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		sibling bool  // a Parallel sibling calls "other" during the wait
		want    int64 // invoke-log fetches; 2n when every post woke the awaiter
	}{
		{"2", 2, false, 2},
		{"8", 8, false, 2},
		{"63", 63, false, 2},
		{"100", 100, false, 39},
		{"8+sibling", 8, true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fetches atomic.Int64
			firstFetch, start := make(chan struct{}), make(chan struct{})
			w := &fetchHookWatcher{Backend: dynamo.NewStore()}
			w.afterFetch = func(n int, _ storage.Subscription) {
				fetches.Store(int64(n))
				if n == 1 {
					close(firstFetch)
					if !tc.sibling {
						close(start)
					}
				}
			}
			f := newFixture(t, withStore(w), withConfig(Config{RowCap: 4, T: DefaultT, ICMinAge: time.Hour,
				LockRetryBase: 5 * time.Second}))
			f.fn("other", func(e *Env, in Value) (Value, error) { return dynamo.S("other"), nil })
			foreign, await := 0, inOrder
			if tc.sibling {
				foreign = 2 // the sibling's invoke-log row and its callee's result
				await = func(e *Env, ps []*Promise) ([]Value, error) {
					var outs []Value
					err := e.Parallel(
						func(be *Env) (err error) {
							outs, err = be.AwaitAll(ps...)
							return err
						},
						func(be *Env) error {
							defer close(start)
							<-firstFetch
							_, err := be.SyncInvoke("other", dynamo.Null)
							return err
						})
					return outs, err
				}
			}
			posted := make(chan struct{})
			heldFanOut(f, tc.n, func(runs []queuedRun, post func(queuedRun)) {
				go func() {
					defer close(posted)
					<-start
					for i, run := range runs {
						post(run)
						want := int64(fanInFetches(tc.n, foreign, i+1))
						for deadline := time.Now().Add(5 * time.Second); fetches.Load() < want; time.Sleep(100 * time.Microsecond) {
							if time.Now().After(deadline) {
								t.Errorf("after post %d: %d fetches, want %d", i+1, fetches.Load(), want)
								return
							}
						}
					}
				}()
			}, await)
			checkFanIn(t, f.mustInvoke("driver", dynamo.Null), tc.n)
			<-posted
			if got := fetches.Load(); got != tc.want {
				t.Errorf("fan-in of %d made %d fetches, want %d", tc.n, got, tc.want)
			}
		})
	}
}

// TestFanInCancelReturnsPromptly cancels a fan-in in the middle of its
// counted wait — 3 of 8 results posted, the wait waking only on the 8th —
// and the instance still returns at once, not after its 5 s timer.
func TestFanInCancelReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs []queuedRun
	var post func(queuedRun)
	canceledAt := make(chan time.Time, 1)
	w := &fetchHookWatcher{Backend: dynamo.NewStore()}
	w.afterFetch = func(n int, _ storage.Subscription) {
		if n == 1 {
			go func() {
				for _, run := range runs[:3] {
					post(run)
				}
				canceledAt <- time.Now()
				cancel()
			}()
		}
	}
	f := newFixture(t, withStore(w), withConfig(Config{RowCap: 4, T: DefaultT, ICMinAge: time.Hour,
		LockRetryBase: 5 * time.Second}))
	heldFanOut(f, 8, func(r []queuedRun, p func(queuedRun)) { runs, post = r, p }, inOrder)
	_, err := f.plat.InvokeCtx(ctx, "driver", ClientEnvelope(dynamo.Null))
	if !errors.Is(err, platform.ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want cancellation", err)
	}
	if el := time.Since(<-canceledAt); el > 500*time.Millisecond {
		t.Errorf("canceled fan-in returned after %v, want prompt", el)
	}
}

// TestAwaitTimeoutFailsInstance pins the bounded-poll behaviour: a promise
// whose callee never completes fails the awaiting instance with
// ErrAwaitTimeout instead of hanging it forever.
func TestAwaitTimeoutFailsInstance(t *testing.T) {
	f := newFixture(t, withConfig(Config{
		RowCap: 4, T: DefaultT, ICMinAge: time.Hour, // no collector rescue
		LockRetryBase: 100 * time.Microsecond, AwaitRetryMax: 3,
	}))
	block := make(chan struct{})
	f.fn("stuck", func(e *Env, in Value) (Value, error) {
		<-block
		return dynamo.Null, nil
	})
	f.fn("driver", func(e *Env, in Value) (Value, error) {
		p, err := e.AsyncInvokePromise("stuck", dynamo.Null)
		if err != nil {
			return dynamo.Null, err
		}
		return p.Await(e)
	})
	_, err := f.invoke("driver", dynamo.Null)
	if !errors.Is(err, ErrAwaitTimeout) {
		t.Errorf("err = %v, want ErrAwaitTimeout", err)
	}
	close(block)
	f.plat.Drain()
}
