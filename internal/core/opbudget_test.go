package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// The store-op budget: how many billed store requests each step kind may
// spend (§7.3's cost model; store_ops_per_workflow in the benchmark is the
// sum of these). Every row is the protocol minimum for its kind on the
// existing Backend API — a Get folded away here cannot creep back without
// this table failing. Read-log rows are group-committed (readlog.go): a read
// or await costs its fetch, and the rows queued since the last boundary cost
// ONE flush op charged to the next effect — so k consecutive reads cost k+1,
// not 2k. The replay column is the same step re-executed after a crash at
// the end of the body: it must return the logged value, cost no more than
// listed, and be counted in Stats.Replays. An intent row is an effect's
// bookkeeping: a callee launched for the first time writes it at its first
// effect boundary, and one that returns without reaching a boundary writes
// nothing but its callback — the SyncInvoke(...) rows price whole callees. A
// write to a never-written key costs what any write does: the head row is
// created by the upsert that logs the step.

// stepCost is one measured step: store ops, replays counted, value returned.
type stepCost struct {
	kind    string
	ops     int64
	replays int64
	out     Value
}

func TestStoreOpBudget(t *testing.T) {
	store := dynamo.NewStore()
	crash := &platform.CrashOnce{Function: "w", Label: "body:done"}
	// RowCap above the five log entries "k" collects, so no write below pays a
	// row append. The first launch of "r8dies" is killed after its reads.
	f := newFixture(t, withStore(store), withFaults(crash),
		withFaults(&platform.CrashOnce{Function: "r8dies", Label: "body:done"}),
		withConfig(Config{RowCap: 8, T: 50 * time.Millisecond, ICMinAge: time.Millisecond}))
	ops := func() int64 { return store.Metrics().Snapshot().TotalOps() }

	leaf := func(e *Env, in Value) (Value, error) { return dynamo.S("leaf:" + in.Str()), nil }
	f.fn("leaf", leaf)
	f.fn("aleaf", leaf)

	const fan = 8 // reads per batch, promises per fan-in
	readFan := func(e *Env, _ Value) (Value, error) {
		var sum int64
		for i := 0; i < fan; i++ {
			v, err := e.Read("kv", "n")
			if err != nil {
				return dynamo.Null, err
			}
			sum += v.Int()
		}
		return dynamo.NInt(sum), nil
	}
	f.fn("r8", readFan, "kv")
	r8s := f.fn("r8s", func(e *Env, _ Value) (Value, error) {
		var sum int64
		for i := 0; i < fan; i++ {
			v, err := e.Read("ref", "n")
			if err != nil {
				return dynamo.Null, err
			}
			sum += v.Int()
		}
		return dynamo.NInt(sum), nil
	}, "ref")
	f.fn("r8dies", readFan, "kv")
	f.fn("r1call", func(e *Env, in Value) (Value, error) {
		if _, err := e.Read("kv", "n"); err != nil {
			return dynamo.Null, err
		}
		return e.SyncInvoke("leaf", in)
	}, "kv")
	w1 := f.fn("w1", func(e *Env, in Value) (Value, error) { return in, e.Write("kv", "n", in) }, "kv")

	var execs [][]stepCost // one slice of measured steps per execution of w
	w := f.fn("w", func(e *Env, _ Value) (Value, error) {
		var steps []stepCost
		f.held.hold() // the async callees run below, after their invocations are measured
		measure := func(kind string, step func() (Value, error)) error {
			o, r := ops(), e.rt.stats.Replays.Load()
			out, err := step()
			steps = append(steps, stepCost{kind, ops() - o, e.rt.stats.Replays.Load() - r, out})
			return err
		}
		write := func(v string) func() (Value, error) {
			return func() (Value, error) { return dynamo.Null, e.Write("kv", "k", dynamo.S(v)) }
		}
		err := errors.Join(
			measure("Read (first)", func() (Value, error) { return e.Read("kv", "k") }),
			measure("Read x7", func() (Value, error) {
				outs := make([]Value, fan-1)
				for i := range outs {
					v, err := e.Read("kv", "k")
					if err != nil {
						return dynamo.Null, err
					}
					outs[i] = v
				}
				return dynamo.L(outs...), nil
			}),
			measure("Read (sealed, cold)", func() (Value, error) { return e.Read("ref", "r") }),
			measure("Read (sealed, warm)", func() (Value, error) { return e.Read("ref", "r") }),
			measure("Write after 8 reads", write("v2")),
			measure("Write", write("v3")),
			measure("CondWrite-false", func() (Value, error) {
				ok, err := e.CondWrite("kv", "k", dynamo.S("v4"), dynamo.Eq(dynamo.A(attrValue), dynamo.S("nope")))
				return dynamo.Bool(ok), err
			}),
			measure("Write (first on its key)", func() (Value, error) {
				return dynamo.Null, e.Write("kv", "new-w", dynamo.S("v1"))
			}),
			measure("CondWrite-true (first on its key)", func() (Value, error) {
				ok, err := e.CondWrite("kv", "new-ct", dynamo.S("v1"), dynamo.Eq(dynamo.A(attrValue), dynamo.Null))
				return dynamo.Bool(ok), err
			}),
			measure("CondWrite-false (first on its key)", func() (Value, error) {
				ok, err := e.CondWrite("kv", "new-cf", dynamo.S("v1"), dynamo.Eq(dynamo.A(attrValue), dynamo.S("nope")))
				return dynamo.Bool(ok), err
			}),
			measure("Lock (first on its key)", func() (Value, error) { return dynamo.Null, e.Lock("kv", "new-l") }),
			e.Unlock("kv", "new-l"),
			measure("SyncInvoke", func() (Value, error) { return e.SyncInvoke("leaf", dynamo.S("s")) }),
			measure("SyncInvoke(Read x8)", func() (Value, error) { return e.SyncInvoke("r8", dynamo.Null) }),
			measure("SyncInvoke(sealed Read x8), warm", func() (Value, error) { return e.SyncInvoke("r8s", dynamo.Null) }),
			measure("SyncInvoke(Read, SyncInvoke)", func() (Value, error) { return e.SyncInvoke("r1call", dynamo.S("s")) }),
			measure("SyncInvoke(Write)", func() (Value, error) { return e.SyncInvoke("w1", dynamo.S("s")) }),
			measure("SyncInvoke(Read x8), relaunched", func() (Value, error) { return e.SyncInvoke("r8dies", dynamo.Null) }),
			measure("AsyncInvoke", func() (Value, error) { return dynamo.Null, e.AsyncInvoke("aleaf", dynamo.S("a")) }),
		)
		if err != nil {
			return dynamo.Null, err
		}
		ps := make([]*Promise, fan)
		for i := range ps {
			if ps[i], err = e.AsyncInvokePromise("aleaf", dynamo.S("p")); err != nil {
				return dynamo.Null, err
			}
		}
		// Run the queued callees to completion now: the promises are posted and
		// every async intent is done before the Awaits below are measured.
		for _, run := range f.held.take() {
			run()
		}
		err = errors.Join(
			measure("Await x8", func() (Value, error) {
				outs, err := e.AwaitAll(ps...)
				return dynamo.L(outs...), err
			}),
			measure("Write after 8 awaits", write("v5")),
			measure("Transaction(Read)", func() (out Value, err error) {
				err = e.Transaction(func() error {
					return measure("txnRead", func() (Value, error) {
						out, err = e.Read("kv", "untouched")
						return out, err
					})
				})
				return out, err
			}),
		)
		execs = append(execs, steps)
		return dynamo.Null, err
	}, "kv", "ref")

	// Existing keys, written by earlier instances; "ref" is then sealed.
	for _, seed := range []struct {
		rt    *Runtime
		table string
		key   string
		v     Value
	}{{w, "kv", "k", dynamo.S("v1")}, {w1, "kv", "n", dynamo.S("v1")}, {w, "ref", "r", dynamo.S("r1")}, {r8s, "ref", "n", dynamo.NInt(3)}} {
		kv := daal{rt: seed.rt, table: seed.rt.dataTable(seed.table)}
		if _, err := kv.loggedWrite(seed.key, "seed#0.000001", mutation{setVal: &seed.v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, rt := range []*Runtime{w, r8s} {
		if err := rt.Seal("ref"); err != nil {
			t.Fatal(err)
		}
	}
	// Warm r8s's cache: the callee measured below reads from memory only.
	if out, err := f.invoke("r8s", dynamo.Null); err != nil || out.Int() != 3*fan {
		t.Fatalf("warming r8s: %v, %v", out, err)
	}

	if _, err := f.invoke("w", dynamo.Null); err == nil || !crash.Fired() {
		t.Fatalf("first execution must die at body:done: err=%v fired=%v", err, crash.Fired())
	}
	if st := w.StatsSnapshot(); st.ReadLogFlushes != 3 || st.ReadLogRows != 2*fan+1 {
		t.Errorf("first execution: %d flushes of %d rows, want 3 (reads, awaits, txn read) of %d",
			st.ReadLogFlushes, st.ReadLogRows, 2*fan+1)
	}
	f.recoverAll()
	if len(execs) != 2 {
		t.Fatalf("%d executions of w, want first + replay", len(execs))
	}
	if st := w.StatsSnapshot(); st.ReadLogFlushes != 3 || st.InstancesSuperseded != 0 {
		t.Errorf("after the replay: %d flushes, %d superseded; a replay queues nothing", st.ReadLogFlushes, st.InstancesSuperseded)
	}

	budget := []struct {
		kind          string
		first, replay int64 // store ops
		replays       int64 // Stats.Replays counted by the replayed step
		why           string
	}{
		{"Read (first)", 1, 1, 1, "query(state), row queued; replay: the re-executed instance's one read-log load, no fetch"},
		{"Read x7", fan - 1, 0, fan - 1, "one query(state) each, rows queued; replay: answered from the loaded log"},
		{"Read (sealed, cold)", 1, 0, 0, "query(state) fills the sealed table's cache, no row queued; replay: no logged row, the cache answers"},
		{"Read (sealed, warm)", 0, 0, 0, "the cache answers: no store op, no row queued"},
		{"Write after 8 reads", 3, 1, 1, "ONE flush of the 8 queued rows + query + apply-and-log; replay: nothing queued, the query finds the entry"},
		{"Write", 2, 1, 1, "query(skeleton+log entry) + apply-and-log; replay: the query finds the entry"},
		{"CondWrite-false", 3, 1, 1, "query + refused B1 + B2 records false; replay: the query finds the entry"},
		{"Write (first on its key)", 2, 1, 1, "query(no head) + ONE upsert that creates the head with the entry logged; replay: the query finds the entry"},
		{"CondWrite-true (first on its key)", 2, 1, 1, "as above: the guard is evaluated against the empty head the upsert is conditional on"},
		{"CondWrite-false (first on its key)", 2, 1, 1, "as above, the upsert logs false and leaves the value Null"},
		{"Lock (first on its key)", 2, 1, 1, "as above, the upsert sets the owner"},
		{"SyncInvoke", 2, 2, 1, "invoke-log insert + callback — a first-launched callee that crosses no boundary writes no intent and no done mark; replay: refused insert + get(result)"},
		{"SyncInvoke(Read x8)", fan + 2, 2, 1, "insert + 8 state queries + callback: an effect-free callee's reads are dropped, not logged"},
		{"SyncInvoke(sealed Read x8), warm", 2, 2, 1, "insert + callback: the callee's 8 reads of a sealed table come from its warm cache"},
		{"SyncInvoke(Read, SyncInvoke)", 8, 2, 1, "insert + query, then at the callee's first boundary intent put + flush + its own insert, the leaf's callback, callback + done"},
		{"SyncInvoke(Write)", 6, 2, 1, "insert + intent put at the boundary + query + apply-and-log + callback + done: an effectful callee pays what it always did"},
		{"SyncInvoke(Read x8), relaunched", 2*fan + 6, 2, 1, "insert + 8 queries that die with the first launch + the relaunch mark on the caller's row (no result held), then the eager relaunch in full: intent put + 8 queries + flush + callback + done"},
		{"AsyncInvoke", 3, 2, 0, "invoke-log insert + callee intent + confirming callback; replay: refused insert + get(registered)"},
		{"Await x8", 1, 0, fan, "ONE query of the instance's invoke-log partition finds all 8 posted results and caches them, rows queued; replay: answered from the loaded log"},
		{"Write after 8 awaits", 3, 1, 1, "ONE flush of the 8 queued rows + the write's 2"},
		{"txnRead", 5, 2, 2, "lock registry + lock(query, upsert: the key was never written) + shadow query + state query, row queued; replay: registry + lock query"},
		{"Transaction(Read)", 12, 7, 3, "the read's 5 + flush at the settle claim + claim + registry query + shadow query + unlock(2) + callee query"},
	}
	first, replay := execs[0], execs[1]
	if len(first) != len(budget) || len(replay) != len(budget) {
		t.Fatalf("measured %d and %d steps, want %d", len(first), len(replay), len(budget))
	}
	outOf := func(kind string) Value {
		for _, s := range first {
			if s.kind == kind {
				return s.out
			}
		}
		t.Fatalf("no measured step %q", kind)
		return dynamo.Null
	}
	for i, b := range budget {
		if first[i].kind != b.kind {
			t.Fatalf("step %d is %s, want %s", i, first[i].kind, b.kind)
		}
		if first[i].ops != b.first || first[i].replays != 0 {
			t.Errorf("%s: first execution cost %d ops (%d replays), budget %d (0) — %s",
				b.kind, first[i].ops, first[i].replays, b.first, b.why)
		}
		if replay[i].ops != b.replay || replay[i].replays != b.replays {
			t.Errorf("%s: replay cost %d ops (%d replays), budget %d (%d) — %s",
				b.kind, replay[i].ops, replay[i].replays, b.replay, b.replays, b.why)
		}
		if !replay[i].out.Equal(first[i].out) {
			t.Errorf("%s: replay returned %v, first execution %v", b.kind, replay[i].out, first[i].out)
		}
	}
	if got := outOf("Read (first)").Str(); got != "v1" {
		t.Errorf("Read returned %q, want the seeded v1", got)
	}
	if got := outOf("Await x8").List(); len(got) != fan || got[0].Str() != "leaf:p" {
		t.Errorf("Await x8 returned %v", got)
	}
	for fn, want := range map[string][3]int64{ // intent rows written, launches deferred, rows never written
		"leaf": {0, 2, 2}, "r8": {0, 1, 1}, "r8s": {1, 1, 1}, "r1call": {1, 1, 0}, "w1": {1, 1, 0}, "r8dies": {1, 1, 0},
	} {
		st := f.rts[fn].StatsSnapshot()
		if got := [3]int64{st.IntentsStarted, st.IntentsDeferred, st.IntentsElided}; got != want {
			t.Errorf("%s: intents started/deferred/elided = %v, want %v", fn, got, want)
		}
	}

	// Whole invocations whose only step is one read. A workflow entry creates
	// its intent, so its log is known empty: fetch + flush at the return, and
	// the only query is the state fetch. An async run never created its
	// intent (registration did), so it pays the log load as well.
	f.fn("r1", func(e *Env, _ Value) (Value, error) { return e.Read("kv", "k") }, "kv")
	invoke := func(fn string, payload Value) (n, queries, fails int64) {
		before := store.Metrics().Snapshot()
		if _, err := f.plat.Invoke(fn, payload); err != nil {
			t.Fatal(err)
		}
		d := store.Metrics().Snapshot().Sub(before)
		return d.TotalOps(), d.Ops["query"], d.CondFailures
	}
	if n, q, _ := invoke("r1", ClientEnvelope(dynamo.Null)); n != 4 || q != 1 {
		t.Errorf("entry instance with one read = %d ops (%d queries); budget intent + 2 for the read + done = 4, 1 query (no log load)", n, q)
	}
	asyncRun := func(fn, id string) (n, queries, fails int64) {
		return invoke(fn, envelope{Kind: kindAsyncRun, InstanceID: id, Input: dynamo.S("r"), Async: true}.encode())
	}
	register := func(fn, id string) {
		reg := envelope{Kind: kindAsyncRegister, InstanceID: id, Input: dynamo.S("r"), Async: true}
		if _, err := f.rts[fn].ensureIntent(id, reg); err != nil {
			t.Fatal(err)
		}
	}
	register("r1", "run-r1")
	if n, q, _ := asyncRun("r1", "run-r1"); n != 5 || q != 2 {
		t.Errorf("async-run instance with one read = %d ops (%d queries); budget intent fetch + 3 for the read (load, fetch, flush) + done = 5, 2 queries", n, q)
	}

	// The async run entry: one fetch of the registered intent, then the body
	// and done-marking; a redelivered run stops at that one fetch. Neither
	// trips a store condition (the old entry's conditional Put always did).
	register("aleaf", "run-1")
	if n, _, fails := asyncRun("aleaf", "run-1"); n != 2 || fails != 0 {
		t.Errorf("async run entry + done = %d ops, %d condition failures; budget 2, 0", n, fails)
	}
	if n, _, fails := asyncRun("aleaf", "run-1"); n != 1 || fails != 0 {
		t.Errorf("redelivered async run = %d ops, %d condition failures; budget 1, 0", n, fails)
	}
	if n, _, _ := asyncRun("aleaf", "never-registered"); n != 1 {
		t.Errorf("async run of an unregistered intent = %d ops; budget 1", n)
	}

	// The promise post handler: ONE guarded update of the invoke-log row that
	// logged the call, whether it applies, repeats an applied one, or finds its
	// owner collected — and never a read of the intent table.
	postRow := dynamo.HSK(dynamo.S("owner"), dynamo.S("0.000001"))
	if err := store.Update(w.invokeLog, postRow, nil, dynamo.Set(dynamo.A(attrCalleeID), dynamo.S("callee"))); err != nil {
		t.Fatal(err)
	}
	post := func(owner string) (n, gets, fails int64) {
		before := store.Metrics().Snapshot()
		ev := envelope{Kind: kindPromisePost, CalleeID: "callee", ReplyFn: "w", ReplyOwner: owner,
			ReplyStep: "0.000001", Result: dynamo.S("r"), HasRes: true}
		if _, err := f.plat.InvokeInternal("w", ev.encode()); err != nil {
			t.Fatal(err)
		}
		d := store.Metrics().Snapshot().Sub(before)
		return d.TotalOps(), d.Ops["get"], d.CondFailures
	}
	for _, c := range []struct {
		what, owner string
		fails       int64
	}{{"applied", "owner", 0}, {"duplicate", "owner", 1}, {"for a collected owner", "collected", 1}} {
		if n, gets, fails := post(c.owner); n != 1 || gets != 0 || fails != c.fails {
			t.Errorf("promise post %s = %d ops (%d gets), %d condition failures; budget 1 (0), %d", c.what, n, gets, fails, c.fails)
		}
	}
	if it, _, _ := store.Get(w.invokeLog, postRow); it[attrPosted].Str() != "r" {
		t.Errorf("posted row = %v", it)
	}
	if _, ok, _ := store.Get(w.invokeLog, dynamo.HSK(dynamo.S("collected"), dynamo.S("0.000001"))); ok {
		t.Error("a refused post created its row")
	}
}
