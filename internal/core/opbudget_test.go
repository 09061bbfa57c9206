package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// The store-op budget: how many billed store requests each step kind may
// spend (§7.3's cost model; store_ops_per_workflow in the benchmark is the
// sum of these). Every row is the protocol minimum for its kind on the
// existing Backend API — a Get folded away here cannot creep back without
// this table failing. The replay column is the same step re-executed after
// a crash at the end of the body: it must return the logged value, cost no
// more than listed, and be counted in Stats.Replays.

// queuedTransport holds async run envelopes until the test delivers them,
// so a run's store ops never land inside another step's measurement.
type queuedTransport struct {
	mu   sync.Mutex
	runs []queuedRun
}

type queuedRun struct {
	fn      string
	payload Value
}

func (q *queuedTransport) Deliver(fn string, payload Value) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.runs = append(q.runs, queuedRun{fn, payload})
	return nil
}

func (q *queuedTransport) take() []queuedRun {
	q.mu.Lock()
	defer q.mu.Unlock()
	runs := q.runs
	q.runs = nil
	return runs
}

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
	f := newFixture(t, withStore(store), withFaults(crash))
	ops := func() int64 { return store.Metrics().Snapshot().TotalOps() }

	transport := &queuedTransport{}
	leaf := func(e *Env, in Value) (Value, error) { return dynamo.S("leaf:" + in.Str()), nil }
	f.fn("leaf", leaf)
	f.fn("aleaf", leaf)

	var execs [][]stepCost // one slice of measured steps per execution of w
	w := f.fn("w", func(e *Env, _ Value) (Value, error) {
		var steps []stepCost
		measure := func(kind string, step func() (Value, error)) error {
			o, r := ops(), e.rt.stats.Replays.Load()
			out, err := step()
			steps = append(steps, stepCost{kind, ops() - o, e.rt.stats.Replays.Load() - r, out})
			return err
		}
		err := errors.Join(
			measure("Read", func() (Value, error) { return e.Read("kv", "k") }),
			measure("Write", func() (Value, error) { return dynamo.Null, e.Write("kv", "k", dynamo.S("v2")) }),
			measure("CondWrite-false", func() (Value, error) {
				ok, err := e.CondWrite("kv", "k", dynamo.S("v3"), dynamo.Eq(dynamo.A(attrValue), dynamo.S("nope")))
				return dynamo.Bool(ok), err
			}),
			measure("SyncInvoke", func() (Value, error) { return e.SyncInvoke("leaf", dynamo.S("s")) }),
			measure("AsyncInvoke", func() (Value, error) { return dynamo.Null, e.AsyncInvoke("aleaf", dynamo.S("a")) }),
		)
		if err != nil {
			return dynamo.Null, err
		}
		p, err := e.AsyncInvokePromise("aleaf", dynamo.S("p"))
		if err != nil {
			return dynamo.Null, err
		}
		// Run the queued callees to completion now: the promise is posted and
		// every async intent is done before the Await below is measured.
		for _, run := range transport.take() {
			if _, err := e.rt.plat.InvokeInternal(run.fn, run.payload); err != nil {
				return dynamo.Null, err
			}
		}
		err = errors.Join(
			measure("Await", func() (Value, error) { return p.Await(e) }),
			e.Transaction(func() error {
				return measure("txnRead", func() (Value, error) { return e.Read("kv", "untouched") })
			}),
		)
		execs = append(execs, steps)
		return dynamo.Null, err
	}, "kv")
	w.SetAsyncTransport(transport)

	// An existing key, written by an earlier instance.
	kv := daal{rt: w, table: w.dataTable("kv")}
	if _, err := kv.loggedWrite("k", "seed#0.000001", mutation{setVal: valPtr(dynamo.S("v1"))}); err != nil {
		t.Fatal(err)
	}

	if _, err := f.invoke("w", dynamo.Null); err == nil || !crash.Fired() {
		t.Fatalf("first execution must die at body:done: err=%v fired=%v", err, crash.Fired())
	}
	f.recoverAll()
	if len(execs) != 2 {
		t.Fatalf("%d executions of w, want first + replay", len(execs))
	}

	budget := []struct {
		kind          string
		first, replay int64 // store ops
		replays       int64 // Stats.Replays counted by the replayed step
		why           string
	}{
		{"Read", 2, 3, 1, "query(state) + read-log insert; replay: query + refused insert + get(logged)"},
		{"Write", 2, 1, 1, "query(skeleton+log entry) + apply-and-log; replay: the query finds the entry"},
		{"CondWrite-false", 3, 1, 1, "query + refused B1 + B2 records false; replay: the query finds the entry"},
		{"SyncInvoke", 4, 2, 1, "invoke-log insert + callee intent + callback + callee done; replay: refused insert + get(result)"},
		{"AsyncInvoke", 3, 2, 0, "invoke-log insert + callee intent + confirming callback; replay: refused insert + get(registered)"},
		{"Await", 2, 1, 1, "fresh intent: mailbox fetch + read-log insert, no probe; replay: the probe finds the logged value"},
		{"txnRead", 7, 6, 2, "lock registry + lock(query, head, apply) + shadow query + state query + read-log insert"},
	}
	first, replay := execs[0], execs[1]
	if len(first) != len(budget) || len(replay) != len(budget) {
		t.Fatalf("measured %d and %d steps, want %d", len(first), len(replay), len(budget))
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
	if got := first[0].out.Str(); got != "v1" {
		t.Errorf("Read returned %q, want the seeded v1", got)
	}
	if got := first[5].out.Str(); got != "leaf:p" {
		t.Errorf("Await returned %q", got)
	}

	// The async run entry: one fetch of the registered intent, then the body
	// and done-marking; a redelivered run stops at that one fetch. Neither
	// trips a store condition (the old entry's conditional Put always did).
	run := func(id string) (int64, int64) {
		ev := envelope{Kind: kindAsyncRun, InstanceID: id, Input: dynamo.S("r"), Async: true}
		o, c := ops(), store.Metrics().Snapshot().CondFailures
		if _, err := f.plat.Invoke("aleaf", ev.encode()); err != nil {
			t.Fatal(err)
		}
		return ops() - o, store.Metrics().Snapshot().CondFailures - c
	}
	reg := envelope{Kind: kindAsyncRegister, InstanceID: "run-1", Input: dynamo.S("r"), Async: true}
	if _, err := f.rts["aleaf"].ensureIntent("run-1", reg); err != nil {
		t.Fatal(err)
	}
	if n, fails := run("run-1"); n != 2 || fails != 0 {
		t.Errorf("async run entry + done = %d ops, %d condition failures; budget 2, 0", n, fails)
	}
	if n, fails := run("run-1"); n != 1 || fails != 0 {
		t.Errorf("redelivered async run = %d ops, %d condition failures; budget 1, 0", n, fails)
	}
	if n, _ := run("never-registered"); n != 1 {
		t.Errorf("async run of an unregistered intent = %d ops; budget 1", n)
	}
}
