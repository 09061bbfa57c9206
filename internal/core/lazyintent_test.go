package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// A callee launched for the first time defers its intent row to its first
// effect boundary, and one that returns without reaching a boundary leaves
// nothing behind but the result in its caller's invoke-log row (wrap.go,
// readlog.go). These tests pin the four rules that make that safe: who may
// defer, what materialisation refuses, what an effect-free return writes,
// and that the first result delivered to a caller is the one every
// execution adopts.

// rowsOf counts the rows of fn's intent table, read log and invoke log.
func (f *fixture) rowsOf(fn string) (intents, reads, invokes int) {
	f.t.Helper()
	rt := f.rts[fn]
	counts := make([]int, 3)
	for i, tbl := range []string{rt.intentTable, rt.readLog, rt.invokeLog} {
		n, err := f.store.TableItemCount(tbl)
		if err != nil {
			f.t.Fatal(err)
		}
		counts[i] = n
	}
	return counts[0], counts[1], counts[2]
}

// callOf returns the single invoke-log row of caller instance id.
func (f *fixture) callOf(fn, id string) dynamo.Item {
	f.t.Helper()
	rows, err := f.store.Query(f.rts[fn].invokeLog, dynamo.S(id), dynamo.QueryOpts{})
	if err != nil || len(rows) != 1 {
		f.t.Fatalf("invoke log of %s/%s: %d rows, %v", fn, id, len(rows), err)
	}
	return rows[0]
}

// readSum reads kv/a and kv/b and returns their sum: the effect-free callee.
func readSum(e *Env, _ Value) (Value, error) {
	a, err := e.Read("kv", "a")
	if err != nil {
		return dynamo.Null, err
	}
	b, err := e.Read("kv", "b")
	if err != nil {
		return dynamo.Null, err
	}
	return dynamo.NInt(a.Int() + b.Int()), nil
}

// frontOf registers callerOf's "front" with its instance id captured, and
// returns a function that runs another execution of that same front intent —
// what a collector restart of the caller is, and the only way a second
// execution of a callee can start while its first launch is still alive.
func frontOf(f *fixture) (front *Runtime, id *atomic.Value, again func() (Value, error)) {
	id = new(atomic.Value)
	front = f.fn("front", func(e *Env, in Value) (Value, error) {
		id.Store(e.InstanceID())
		out, err := e.SyncInvoke("w", in)
		if err != nil {
			return dynamo.Null, err
		}
		return out, e.Write("seen", "w", out)
	}, "seen")
	return front, id, func() (Value, error) {
		return f.plat.Invoke("front", envelope{Kind: kindCall, InstanceID: id.Load().(string)}.encode())
	}
}

// parkArrivals returns a fault plan that blocks each of the first k instances
// of fn to reach label until its release channel is closed, signalling its
// arrival first; it never crashes. One plan counts every arrival: two plans
// would each miss the arrivals parked inside the other.
func parkArrivals(fn, label string, k int) (plan platform.FaultPlan, arrived, release []chan struct{}) {
	for i := 0; i < k; i++ {
		arrived, release = append(arrived, make(chan struct{})), append(release, make(chan struct{}))
	}
	var seen atomic.Int64
	return atCrashPoint{fn: fn, label: label, do: func() {
		if n := int(seen.Add(1)); n <= k {
			close(arrived[n-1])
			<-release[n-1]
		}
	}}, arrived, release
}

type reply struct {
	out Value
	err error
}

func goInvoke(call func() (Value, error)) chan reply {
	ch := make(chan reply, 1)
	go func() {
		out, err := call()
		ch <- reply{out, err}
	}()
	return ch
}

func TestLazyIntentEffectFreeCalleeLeavesOnlyItsResult(t *testing.T) {
	f := newFixture(t)
	w := f.fn("w", readSum, "kv")
	front, frontID, _ := frontOf(f)
	f.foreignWrite("w", "kv", "a", dynamo.NInt(1))
	f.foreignWrite("w", "kv", "b", dynamo.NInt(2))

	if out := f.mustInvoke("front", dynamo.Null); out.Int() != 3 {
		t.Fatalf("front returned %v, want 3", out)
	}
	if i, r, v := f.rowsOf("w"); i != 0 || r != 0 || v != 0 {
		t.Errorf("effect-free callee left %d intent, %d read-log, %d invoke-log rows; want none", i, r, v)
	}
	call := f.callOf("front", frontID.Load().(string))
	if got := call[attrResult]; got.Int() != 3 {
		t.Errorf("caller's invoke-log row holds %v, want the result 3", got)
	}
	if st := w.StatsSnapshot(); st.IntentsDeferred != 1 || st.IntentsElided != 1 || st.IntentsStarted != 0 || st.IntentsCompleted != 0 {
		t.Errorf("w intents deferred/elided/started/completed = %d/%d/%d/%d, want 1/1/0/0",
			st.IntentsDeferred, st.IntentsElided, st.IntentsStarted, st.IntentsCompleted)
	}
	for _, rt := range []*Runtime{w, front} {
		if err := Fsck(rt); err != nil {
			t.Error(err)
		}
	}
	// Nothing of the callee for the collectors either, now or after T.
	time.Sleep(2 * f.cfg.T)
	f.recoverAll()
	f.gcAll()
	f.gcAll()
	if st := w.StatsSnapshot(); st.Restarts != 0 || st.GCIntents != 0 || st.GCLogRows != 0 {
		t.Errorf("collectors found work for an effect-free callee: %d restarts, %d intents, %d log rows", st.Restarts, st.GCIntents, st.GCLogRows)
	}
}

func TestLazyIntentKilledFirstLaunchIsRelaunchedEagerly(t *testing.T) {
	// The first launch dies before, at, and after its only durable act (the
	// callback), while a foreign write changes what a relaunch would read.
	// Before the callback nothing was durable, so the caller's in-place retry
	// starts over — eagerly: it is not a first launch — and everyone sees the
	// new value. After it, the caller's row holds the old one: no relaunch.
	for _, tc := range []struct {
		label      string
		want       int64
		relaunched bool
	}{
		{"read:post:0.000001", 12, true},
		{"body:done", 12, true},
		{"callback:sent", 3, false},
	} {
		t.Run(tc.label, func(t *testing.T) {
			var f *fixture
			f = newFixture(t, withFaults(&killAt{fn: "w", label: tc.label, do: func() {
				f.foreignWrite("w", "kv", "a", dynamo.NInt(10))
			}}))
			var ids sync.Map
			var launches atomic.Int64
			w := f.fn("w", func(e *Env, in Value) (Value, error) {
				ids.Store(e.InstanceID(), true)
				launches.Add(1)
				return readSum(e, in)
			}, "kv")
			front, frontID, _ := frontOf(f)
			f.foreignWrite("w", "kv", "a", dynamo.NInt(1))
			f.foreignWrite("w", "kv", "b", dynamo.NInt(2))

			out := f.mustInvoke("front", dynamo.Null)
			f.recoverAll()
			if out.Int() != tc.want {
				t.Errorf("front returned %v, want %d", out, tc.want)
			}
			if got := f.callOf("front", frontID.Load().(string))[attrResult]; got.Int() != tc.want {
				t.Errorf("invoke-log row holds %v, want %d", got, tc.want)
			}
			if got := f.readData("front", "seen", "w"); got.Int() != tc.want {
				t.Errorf("front recorded %v, want %d", got, tc.want)
			}
			if got := front.StatsSnapshot(); got.CallbacksIn != 1 || got.SpuriousCallback != 0 {
				t.Errorf("front took %d callbacks (%d spurious), want the result delivered once", got.CallbacksIn, got.SpuriousCallback)
			}
			n := 0
			ids.Range(func(_, _ any) bool { n++; return true })
			wantLaunches, wantIntents, wantReads := int64(1), 0, 0
			if tc.relaunched {
				wantLaunches, wantIntents, wantReads = 2, 1, 2
			}
			if n != 1 || launches.Load() != wantLaunches {
				t.Errorf("%d launches under %d ids, want %d under one", launches.Load(), n, wantLaunches)
			}
			if i, r, _ := f.rowsOf("w"); i != wantIntents || r != wantReads {
				t.Errorf("w holds %d intents and %d read-log rows, want %d and %d", i, r, wantIntents, wantReads)
			}
			if st := w.StatsSnapshot(); st.IntentsDeferred != 1 || st.IntentsCompleted != int64(wantIntents) || st.Restarts != 0 {
				t.Errorf("w: %d deferred, %d completed, %d restarts; want 1, %d, 0", st.IntentsDeferred, st.IntentsCompleted, st.Restarts, wantIntents)
			}
			for _, rt := range []*Runtime{w, front} {
				if err := Fsck(rt); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestLazyIntentFirstResultWins(t *testing.T) {
	// Two live executions of one effect-free callee id: the first launch A
	// (deferred, no log) parked with its body done, and B, launched eagerly by
	// a re-execution of the caller, with a foreign write in between so they
	// compute 3 and 12. No log makes them agree, so the caller's row does: B's
	// callback lands first and is the result; A's is refused, and A adopts what
	// the row holds as its reply.
	plan, parked, release := parkArrivals("w", "body:done", 1)
	f := newFixture(t, withFaults(plan))
	var id atomic.Value
	w := f.fn("w", func(e *Env, in Value) (Value, error) {
		id.Store(e.InstanceID())
		return readSum(e, in)
	}, "kv")
	front, frontID, again := frontOf(f)
	f.foreignWrite("w", "kv", "a", dynamo.NInt(1))
	f.foreignWrite("w", "kv", "b", dynamo.NInt(2))

	first := goInvoke(func() (Value, error) { return f.invoke("front", dynamo.Null) })
	<-parked[0] // A holds 3, its body done, nothing sent
	f.foreignWrite("w", "kv", "a", dynamo.NInt(10))
	if out, err := again(); err != nil || out.Int() != 12 {
		t.Fatalf("front's re-execution: %v, %v; want B's 12", out, err)
	}
	close(release[0])
	if r := <-first; r.err != nil || r.out.Int() != 12 {
		t.Fatalf("front's first execution: %v, %v; want B's 12 adopted", r.out, r.err)
	}
	if got := f.callOf("front", frontID.Load().(string))[attrResult]; got.Int() != 12 {
		t.Errorf("invoke-log row holds %v, want the first delivered 12", got)
	}
	if got := f.readData("front", "seen", "w"); got.Int() != 12 {
		t.Errorf("front recorded %v, want 12", got)
	}
	if _, done, ret, _ := w.intentDone(id.Load().(string)); !done || ret.Int() != 12 {
		t.Errorf("B's intent: done=%v ret=%v, want done with 12", done, ret)
	}
	if st := front.StatsSnapshot(); st.CallbacksIn != 2 || st.SpuriousCallback != 0 {
		t.Errorf("front took %d callbacks, %d spurious; want 2, 0 (a refused result is not spurious)", st.CallbacksIn, st.SpuriousCallback)
	}
	if st := w.StatsSnapshot(); st.IntentsElided != 1 || st.IntentsStarted != 1 || st.InstancesSuperseded != 0 {
		t.Errorf("w: %d elided, %d started, %d superseded; want 1, 1, 0", st.IntentsElided, st.IntentsStarted, st.InstancesSuperseded)
	}
	for _, rt := range []*Runtime{w, front} {
		if err := Fsck(rt); err != nil {
			t.Error(err)
		}
	}
}

func TestLazyIntentEffectFreeResultLosesToARelaunch(t *testing.T) {
	// Whether the callee has an effect depends on what it reads: it sells one
	// unit if any is in stock. The first launch A sees none and is parked with
	// its body done — effect-free, "sold out" in hand. Stock arrives, and B,
	// launched eagerly by a re-execution of the caller, sells a unit and is
	// parked before it delivers. If A's result were accepted now, the caller
	// would hold "sold out" beside B's decrement: the result of one execution
	// and the effect of another. The relaunch closed the row first, so A's
	// callback is refused, A stops superseded, and its caller's retry joins B's
	// intent and replays B's log.
	plan, parked, release := parkArrivals("w", "body:done", 2)
	f := newFixture(t, withFaults(plan))
	w := f.fn("w", func(e *Env, _ Value) (Value, error) {
		stock, err := e.Read("kv", "stock")
		if err != nil || stock.Int() < 1 {
			return dynamo.S("sold out"), err
		}
		return dynamo.S("sold"), e.Write("kv", "stock", dynamo.NInt(stock.Int()-1))
	}, "kv")
	front, frontID, again := frontOf(f)
	f.foreignWrite("w", "kv", "stock", dynamo.NInt(0))

	first := goInvoke(func() (Value, error) { return f.invoke("front", dynamo.Null) })
	<-parked[0] // A: "sold out", nothing written, nothing sent
	f.foreignWrite("w", "kv", "stock", dynamo.NInt(5))
	second := goInvoke(again)
	<-parked[1] // B: one unit sold under its intent, nothing sent
	close(release[0])
	if r := <-first; r.err != nil || r.out.Str() != "sold" {
		t.Fatalf("front's first execution: %v, %v; want the relaunch's result", r.out, r.err)
	}
	close(release[1])
	if r := <-second; r.err != nil || r.out.Str() != "sold" {
		t.Fatalf("front's re-execution: %v, %v; want sold", r.out, r.err)
	}
	if got := f.readData("w", "kv", "stock"); got.Int() != 4 {
		t.Errorf("stock = %v, want 4: one unit sold once", got)
	}
	if got := f.callOf("front", frontID.Load().(string))[attrResult]; got.Str() != "sold" {
		t.Errorf("invoke-log row holds %v beside a decremented stock", got)
	}
	if got := f.readData("front", "seen", "w"); got.Str() != "sold" {
		t.Errorf("front recorded %v, want sold", got)
	}
	// A's refused callback, the retry's applied one, B's held one.
	if st := front.StatsSnapshot(); st.CallbacksIn != 3 || st.SpuriousCallback != 0 {
		t.Errorf("front took %d callbacks, %d spurious; want 3, 0", st.CallbacksIn, st.SpuriousCallback)
	}
	if st := w.StatsSnapshot(); st.IntentsElided != 0 || st.IntentsStarted != 1 || st.InstancesSuperseded != 1 {
		t.Errorf("w: %d elided, %d started, %d superseded; want 0, 1, 1", st.IntentsElided, st.IntentsStarted, st.InstancesSuperseded)
	}
	for _, rt := range []*Runtime{w, front} {
		if err := Fsck(rt); err != nil {
			t.Error(err)
		}
	}
}

func TestLazyIntentSupersededAtMaterialisation(t *testing.T) {
	// The first launch A is parked before its first write — its first effect
	// boundary — while B, launched eagerly by a re-execution of the caller,
	// creates the intent and finishes. A's deferred put is refused: it stops
	// with ErrInstanceSuperseded before the write, at that boundary and at
	// every later one, even when its body shrugs the error off.
	for _, shrug := range []bool{false, true} {
		name := "body returns the error"
		if shrug {
			name = "body ignores the error"
		}
		t.Run(name, func(t *testing.T) {
			plan, arrived, resume := parkArrivals("w", "write:pre:0.000003", 1)
			parked, release := arrived[0], resume[0]
			f := newFixture(t, withFaults(plan))
			var launches atomic.Int64
			w := f.fn("w", func(e *Env, in Value) (Value, error) {
				first := launches.Add(1) == 1
				out, err := sumBody(e, in)
				if err != nil && first && shrug {
					return dynamo.NInt(-1), nil
				}
				return out, err
			}, "kv")
			front, _, again := frontOf(f)
			f.foreignWrite("w", "kv", "a", dynamo.NInt(1))
			f.foreignWrite("w", "kv", "b", dynamo.NInt(2))

			first := goInvoke(func() (Value, error) { return f.invoke("front", dynamo.Null) })
			<-parked
			f.foreignWrite("w", "kv", "a", dynamo.NInt(10))
			if out, err := again(); err != nil || out.Int() != 12 {
				t.Fatalf("front's re-execution: %v, %v; want B's 12", out, err)
			}
			close(release)
			// A failed; the caller consults its row, finds B's result and returns it.
			if r := <-first; r.err != nil || r.out.Int() != 12 {
				t.Fatalf("front's first execution: %v, %v; want 12 from its invoke log", r.out, r.err)
			}
			if got := f.readData("w", "kv", "sum"); got.Int() != 12 {
				t.Errorf("sum = %v, want B's 12: the superseded launch's write was issued", got)
			}
			st := w.StatsSnapshot()
			if st.InstancesSuperseded != 1 || st.IntentsStarted != 1 || st.IntentsCompleted != 1 || st.IntentsElided != 0 {
				t.Errorf("w: %d superseded, %d started, %d completed, %d elided; want 1, 1, 1, 0",
					st.InstancesSuperseded, st.IntentsStarted, st.IntentsCompleted, st.IntentsElided)
			}
			if got := front.StatsSnapshot().CallbacksIn; got != 1 {
				t.Errorf("front took %d callbacks, want only B's", got)
			}
			if launches.Load() != 2 {
				t.Errorf("%d launches of w, want A and B", launches.Load())
			}
			for _, rt := range []*Runtime{w, front} {
				if err := Fsck(rt); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// intentPuts counts the puts a backend receives for one intent table.
type intentPuts struct {
	storage.Backend
	table string
	n     atomic.Int64
}

func (s *intentPuts) Put(table string, item dynamo.Item, cond dynamo.Cond) error {
	if table == s.table {
		s.n.Add(1)
	}
	return s.Backend.Put(table, item, cond)
}

func TestLazyIntentPastItsDeadlineDiesBeforeMaterialising(t *testing.T) {
	// The synchrony bound T (§5) is what the platform's execution timeout
	// enforces: an instance past its deadline dies at its next crash point. A
	// deferred instance must meet one before it creates its row — the
	// collector's horizon may have passed over whatever another execution of
	// its id left — even where the boundary has no crash point of its own (a
	// transaction's lock registry). The caller's retry launches eagerly.
	store := &intentPuts{Backend: storagetest.Open(t), table: "w.intent"}
	f := newFixture(t, withStore(store))
	var launches atomic.Int64
	w := f.fn("w", func(e *Env, _ Value) (Value, error) {
		if launches.Add(1) == 1 {
			e.Sleep(30 * time.Millisecond)
		}
		return dynamo.NInt(3), e.Transaction(func() error { return e.Write("kv", "sum", dynamo.NInt(3)) })
	}, "kv")
	f.plat.Register("w", w.Handler(), 20*time.Millisecond)
	frontOf(f)

	if out := f.mustInvoke("front", dynamo.Null); out.Int() != 3 {
		t.Fatalf("front returned %v, want 3", out)
	}
	if launches.Load() != 2 || store.n.Load() != 1 {
		t.Errorf("%d launches issued %d intent puts; want 2 launches and only the relaunch's put", launches.Load(), store.n.Load())
	}
	if st := w.StatsSnapshot(); st.IntentsDeferred != 1 || st.IntentsStarted != 1 || st.IntentsCompleted != 1 || st.InstancesSuperseded != 0 {
		t.Errorf("w: %d deferred, %d started, %d completed, %d superseded; want 1, 1, 1, 0",
			st.IntentsDeferred, st.IntentsStarted, st.IntentsCompleted, st.InstancesSuperseded)
	}
	if got := f.readData("w", "kv", "sum"); got.Int() != 3 {
		t.Errorf("sum = %v, want 3", got)
	}
	if err := Fsck(w); err != nil {
		t.Error(err)
	}
}

func TestLazyIntentStoredArgsDescribeARelaunch(t *testing.T) {
	// A materialised intent is restarted by the collector from its stored
	// Args. They must not say First: the restart is not first, its read log
	// is not empty, and assuming so would re-fetch a logged read and then be
	// refused at its own intent.
	f := newFixture(t,
		withFaults(&platform.CrashOnce{Function: "w", Label: "write:post:0.000003"}),
		withFaults(&platform.CrashOnce{Function: "front", Label: "invoke:post:0.000001"}))
	var id atomic.Value
	w := f.fn("w", func(e *Env, in Value) (Value, error) {
		id.Store(e.InstanceID())
		return sumBody(e, in)
	}, "kv")
	frontOf(f)
	f.foreignWrite("w", "kv", "a", dynamo.NInt(1))
	f.foreignWrite("w", "kv", "b", dynamo.NInt(2))
	if _, err := f.invoke("front", dynamo.Null); !errors.Is(err, platform.ErrCrashed) {
		t.Fatalf("front must die with its callee, got %v", err)
	}
	row, ok, err := f.store.Get(w.intentTable, dynamo.HK(dynamo.S(id.Load().(string))))
	if err != nil || !ok {
		t.Fatalf("materialised intent row: %v, %v", ok, err)
	}
	if _, has := row[attrArgs].MapGet("First"); has {
		t.Error("the stored Args carry First")
	}
	f.foreignWrite("w", "kv", "a", dynamo.NInt(10)) // a re-fetch would see it
	time.Sleep(2 * time.Millisecond)                // exceed ICMinAge
	before := f.store.Metrics().Snapshot()
	if n, err := w.RunIntentCollector(); err != nil || n != 1 {
		t.Fatalf("w's collector restarted %d, %v; want its one pending intent", n, err)
	}
	f.plat.Drain()
	d := f.store.Metrics().Snapshot().Sub(before)
	if _, done, ret, _ := w.intentDone(id.Load().(string)); !done || ret.Int() != 3 {
		t.Fatalf("restarted intent: done=%v ret=%v, want done with the logged 3", done, ret)
	}
	// Three queries: the collector's own index scan, then the restart's
	// read-log load and its write's skeleton scan — no state query per read.
	if q := d.Ops["query"]; q != 3 {
		t.Errorf("collector pass and restart issued %d queries, want 3 (pending index + log load + the write's scan)", q)
	}
	if st := w.StatsSnapshot(); st.IntentsDeferred != 1 || st.InstancesSuperseded != 0 || st.Replays < 3 {
		t.Errorf("w: %d deferred, %d superseded, %d replays; want 1, 0, and both reads and the write replayed",
			st.IntentsDeferred, st.InstancesSuperseded, st.Replays)
	}
	f.recoverAll()
	if got := f.readData("front", "seen", "w"); got.Int() != 3 {
		t.Errorf("front recorded %v, want 3", got)
	}
}

func TestLazyIntentRedeliveredResultIsHeldNotSpurious(t *testing.T) {
	// A result delivered again — a re-invoked done intent, a repeated async
	// registration — is refused by the single-assignment row. That is a
	// confirmation carrying what the row holds, not a spurious callback.
	f := newFixture(t)
	var id atomic.Value
	w := f.fn("w", func(e *Env, in Value) (Value, error) {
		id.Store(e.InstanceID())
		return counterBody(e, in)
	}, "counter")
	front, frontID, _ := frontOf(f)
	if out := f.mustInvoke("front", dynamo.S("k")); out.Int() != 1 {
		t.Fatalf("front returned %v, want 1", out)
	}
	call := f.callOf("front", frontID.Load().(string))
	// The caller's retry of a callee that is already done.
	retry := envelope{Kind: kindCall, InstanceID: id.Load().(string), Input: dynamo.S("k"),
		CallerFn: "front", CallerInstance: frontID.Load().(string), CallerStep: call[attrStep].Str()}
	if out, err := f.plat.Invoke("w", retry.encode()); err != nil || out.Int() != 1 {
		t.Errorf("re-invoked done intent replied %v, %v; want the held 1", out, err)
	}
	held, confirmed, err := w.issueCallback(retry, retry.InstanceID, dynamo.NInt(99), false, false)
	if err != nil || !confirmed || held.Int() != 1 {
		t.Errorf("a second result for the row: held=%v confirmed=%v err=%v; want 1, true", held, confirmed, err)
	}
	if _, confirmed, _ := w.issueCallback(retry, "someone-else", dynamo.NInt(99), false, false); confirmed {
		t.Error("a callback naming another callee was confirmed")
	}
	if st := front.StatsSnapshot(); st.CallbacksIn != 4 || st.SpuriousCallback != 1 {
		t.Errorf("front: %d callbacks, %d spurious; want 4 with only the foreign one spurious", st.CallbacksIn, st.SpuriousCallback)
	}
	if got := f.readData("w", "counter", "k"); got.Int() != 1 {
		t.Errorf("counter = %v, want 1", got)
	}

	// Async: registering the same callee id for the same step twice.
	var ran atomic.Int64
	f.fn("work", func(e *Env, _ Value) (Value, error) {
		ran.Add(1)
		return dynamo.Null, nil
	})
	var driverID atomic.Value
	f.fn("driver", func(e *Env, _ Value) (Value, error) {
		driverID.Store(e.InstanceID())
		return dynamo.Null, e.AsyncInvoke("work", dynamo.Null)
	})
	f.mustInvoke("driver", dynamo.Null)
	f.plat.Drain()
	reg := f.callOf("driver", driverID.Load().(string))
	again := envelope{Kind: kindAsyncRegister, InstanceID: reg[attrCalleeID].Str(), Async: true,
		CallerFn: "driver", CallerInstance: driverID.Load().(string), CallerStep: reg[attrStep].Str()}
	if out, err := f.plat.Invoke("work", again.encode()); err != nil || !out.BoolVal() {
		t.Errorf("re-registration replied %v, %v; want confirmed", out, err)
	}
	if ran.Load() != 1 {
		t.Errorf("work ran %d times, want 1", ran.Load())
	}
}

func TestLazyIntentTransactionsSeeTheRowsStartTime(t *testing.T) {
	// A first-launched transaction owner hands its callees a wait-die
	// priority before its row exists; the row it writes at its first boundary
	// (recording its first callee) must hold that very value, and a
	// re-execution must read it back. A first-launched participant writes its
	// row before it registers its first lock.
	var f *fixture
	var locksAtIntent atomic.Int64
	locksAtIntent.Store(-1)
	f = newFixture(t,
		withFaults(&platform.CrashOnce{Function: "owner", Label: "body:done"}),
		withFaults(atCrashPoint{fn: "part", label: "intent:logged", do: func() {
			// part's first intent is its execute instance; its commit phase
			// writes a second one when the registry is long populated.
			n, err := f.store.TableItemCount(f.rts["part"].txLocks)
			if err != nil {
				t.Error(err)
			}
			locksAtIntent.CompareAndSwap(-1, int64(n))
		}}))
	part := f.fn("part", func(e *Env, in Value) (Value, error) {
		return in, e.Write("kv", "k", in)
	}, "kv")
	var starts []int64
	var ownerID atomic.Value
	owner := f.fn("owner", func(e *Env, in Value) (Value, error) {
		ownerID.Store(e.InstanceID())
		err := e.Transaction(func() error {
			starts = append(starts, e.shared.txn.Start)
			_, err := e.SyncInvoke("part", in)
			return err
		})
		return in, err
	})
	f.fn("front", func(e *Env, in Value) (Value, error) { return e.SyncInvoke("owner", in) })

	if out := f.mustInvoke("front", dynamo.S("v")); out.Str() != "v" {
		t.Fatalf("front returned %v", out)
	}
	row, ok, err := f.store.Get(owner.intentTable, dynamo.HK(dynamo.S(ownerID.Load().(string))))
	if err != nil || !ok {
		t.Fatalf("owner's intent row: %v, %v", ok, err)
	}
	if len(starts) != 2 || starts[0] != starts[1] || starts[0] != row[attrStartTime].Int() {
		t.Errorf("transaction starts %v across the two executions, row StartTime %d; want all equal",
			starts, row[attrStartTime].Int())
	}
	if st := owner.StatsSnapshot(); st.IntentsDeferred != 1 || st.IntentsStarted != 1 || st.IntentsCompleted != 1 {
		t.Errorf("owner: %d deferred, %d started, %d completed; want 1, 1, 1", st.IntentsDeferred, st.IntentsStarted, st.IntentsCompleted)
	}
	if got := locksAtIntent.Load(); got != 0 {
		t.Errorf("part's lock registry held %d rows when its intent row was written, want 0 (row first)", got)
	}
	// part ran twice under one transaction: its execute instance (deferred,
	// materialised at the lock) and its commit phase.
	if st := part.StatsSnapshot(); st.IntentsStarted != 2 || st.IntentsCompleted != 2 || st.IntentsElided != 0 {
		t.Errorf("part: %d started, %d completed, %d elided; want 2, 2, 0", st.IntentsStarted, st.IntentsCompleted, st.IntentsElided)
	}
	if got := f.readData("part", "kv", "k"); got.Str() != "v" {
		t.Errorf("kv/k = %v, want the committed v", got)
	}
	for _, rt := range []*Runtime{part, owner} {
		if err := Fsck(rt); err != nil {
			t.Error(err)
		}
	}
}

func TestLazyIntentParallelBranchesMaterialiseOnce(t *testing.T) {
	// Branches of a deferred instance race to their first boundaries; the row
	// is written once, before either effect.
	f := newFixture(t)
	w := f.fn("w", func(e *Env, in Value) (Value, error) {
		branch := func(key string) func(*Env) error {
			return func(b *Env) error {
				v, err := b.Read("kv", "a")
				if err != nil {
					return err
				}
				return b.Write("kv", key, v)
			}
		}
		return in, e.Parallel(branch("x"), branch("y"), branch("z"))
	}, "kv")
	frontOf(f)
	f.foreignWrite("w", "kv", "a", dynamo.NInt(7))
	f.mustInvoke("front", dynamo.Null)
	if st := w.StatsSnapshot(); st.IntentsDeferred != 1 || st.IntentsStarted != 1 || st.IntentsCompleted != 1 || st.InstancesSuperseded != 0 {
		t.Errorf("w: %d deferred, %d started, %d completed, %d superseded; want 1, 1, 1, 0",
			st.IntentsDeferred, st.IntentsStarted, st.IntentsCompleted, st.InstancesSuperseded)
	}
	for _, key := range []string{"x", "y", "z"} {
		if got := f.readData("w", "kv", key); got.Int() != 7 {
			t.Errorf("kv/%s = %v, want 7", key, got)
		}
	}
	if i, r, _ := f.rowsOf("w"); i != 1 || r != 3 {
		t.Errorf("w holds %d intents and %d read-log rows, want 1 and 3", i, r)
	}
	if err := Fsck(w); err != nil {
		t.Error(err)
	}
}
