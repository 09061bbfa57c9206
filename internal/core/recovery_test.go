package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// These tests establish the paper's headline guarantee (§2.2): for a crash
// injected at EVERY operation boundary of every SSF in a workflow, after
// the intent collector finishes the job, observable state equals that of a
// crash-free execution. The sweep first runs the workflow under an
// OpCounter to learn how many crash points exist, then re-runs it once per
// (function, op-index) with a CrashNthOp plan.

// crashSweep runs workload once per crash point of function fn; after each
// crashed run it drives recovery and calls check.
func crashSweep(t *testing.T, fns []string, build func(f *fixture), workload func(f *fixture) error, check func(f *fixture, label string)) {
	t.Helper()
	// Discovery run: count crash points per function.
	counter := &platform.OpCounter{}
	probe := newFixture(t, withFaults(counter))
	build(probe)
	if err := workload(probe); err != nil {
		t.Fatalf("crash-free run failed: %v", err)
	}
	probe.plat.Drain()
	check(probe, "crash-free")

	for _, fn := range fns {
		max := counter.Max(fn)
		if max == 0 {
			t.Fatalf("function %s hit no crash points; sweep is vacuous", fn)
		}
		for n := 1; n <= max; n++ {
			label := fmt.Sprintf("%s@op%d", fn, n)
			plan := &CrashNthOpOnce{Function: fn, N: n}
			f := newFixture(t, withFaults(plan))
			build(f)
			err := workload(f)
			f.plat.Drain()
			if err == nil && !plan.Fired() {
				t.Fatalf("%s: plan never fired", label)
			}
			f.recoverAll()
			check(f, label)
		}
	}
}

// CrashNthOpOnce wraps platform.CrashNthOp (avoids importing the name at
// call sites).
type CrashNthOpOnce = platform.CrashNthOp

func TestExactlyOnceSingleSSFCrashSweep(t *testing.T) {
	// One SSF: read-increment-write plus a conditional write and a second
	// counter — multiple external ops, crashed at every boundary.
	build := func(f *fixture) {
		f.fn("w", func(e *Env, in Value) (Value, error) {
			v, err := e.Read("counter", "a")
			if err != nil {
				return dynamo.Null, err
			}
			if err := e.Write("counter", "a", dynamo.NInt(v.Int()+1)); err != nil {
				return dynamo.Null, err
			}
			// Conditional write: claim a slot only once.
			if _, err := e.CondWrite("counter", "slot", dynamo.S("claimed"),
				dynamo.Or(dynamo.NotExists(dynamo.A(attrValue)), dynamo.Eq(dynamo.A(attrValue), dynamo.Null))); err != nil {
				return dynamo.Null, err
			}
			b, err := e.Read("counter", "b")
			if err != nil {
				return dynamo.Null, err
			}
			if err := e.Write("counter", "b", dynamo.NInt(b.Int()+10)); err != nil {
				return dynamo.Null, err
			}
			return dynamo.S("done"), nil
		}, "counter")
	}
	workload := func(f *fixture) error {
		_, err := f.invokeAsClient("w", dynamo.Null)
		if err != nil && !errors.Is(err, platform.ErrCrashed) {
			return err
		}
		return nil
	}
	check := func(f *fixture, label string) {
		if got := f.readData("w", "counter", "a"); got.Int() != 1 {
			t.Errorf("%s: a = %v, want 1", label, got)
		}
		if got := f.readData("w", "counter", "b"); got.Int() != 10 {
			t.Errorf("%s: b = %v, want 10", label, got)
		}
		if got := f.readData("w", "counter", "slot"); got.Str() != "claimed" {
			t.Errorf("%s: slot = %v", label, got)
		}
	}
	crashSweep(t, []string{"w"}, build, workload, check)
}

func TestExactlyOnceWorkflowCrashSweep(t *testing.T) {
	// Two-SSF workflow: front reads+writes its own state and sync-invokes
	// a backend that increments its own counter. Crash every op boundary of
	// BOTH functions, including the callback window of Figure 9.
	build := func(f *fixture) {
		f.fn("back", counterBody, "counter")
		f.fn("front", func(e *Env, in Value) (Value, error) {
			v, err := e.Read("state", "seq")
			if err != nil {
				return dynamo.Null, err
			}
			out, err := e.SyncInvoke("back", dynamo.S("k"))
			if err != nil {
				return dynamo.Null, err
			}
			if err := e.Write("state", "seq", dynamo.NInt(v.Int()+out.Int())); err != nil {
				return dynamo.Null, err
			}
			return out, nil
		}, "state")
	}
	workload := func(f *fixture) error {
		_, err := f.invokeAsClient("front", dynamo.Null)
		if err != nil && !errors.Is(err, platform.ErrCrashed) && !errors.Is(err, platform.ErrTimeout) {
			return err
		}
		return nil
	}
	check := func(f *fixture, label string) {
		if got := f.readData("back", "counter", "k"); got.Int() != 1 {
			t.Errorf("%s: backend counter = %v, want 1 (exactly-once violated)", label, got)
		}
		if got := f.readData("front", "state", "seq"); got.Int() != 1 {
			t.Errorf("%s: front seq = %v, want 1", label, got)
		}
	}
	crashSweep(t, []string{"front", "back"}, build, workload, check)
}

func TestExactlyOnceAsyncCrashSweep(t *testing.T) {
	// Async invocation: front registers + fires an async increment; sweep
	// both sides.
	build := func(f *fixture) {
		f.fn("bg", counterBody, "counter")
		f.fn("front", func(e *Env, in Value) (Value, error) {
			if err := e.AsyncInvoke("bg", dynamo.S("k")); err != nil {
				return dynamo.Null, err
			}
			return dynamo.S("ok"), nil
		})
	}
	workload := func(f *fixture) error {
		_, err := f.invokeAsClient("front", dynamo.Null)
		if err != nil && !errors.Is(err, platform.ErrCrashed) && !errors.Is(err, platform.ErrTimeout) {
			return err
		}
		return nil
	}
	check := func(f *fixture, label string) {
		if got := f.readData("bg", "counter", "k"); got.Int() != 1 {
			t.Errorf("%s: counter = %v, want 1", label, got)
		}
	}
	crashSweep(t, []string{"front", "bg"}, build, workload, check)
}

func TestBaselineDoubleExecutesUnderCrashRetry(t *testing.T) {
	// Negative control: the baseline (no Beldi) double-increments when the
	// client retries after a mid-body crash — the anomaly §2.1 describes.
	plan := &platform.CrashOnce{Function: "w", Label: "after-write"}
	f := newFixture(t, withMode(ModeBaseline), withFaults(plan))
	f.fn("w", func(e *Env, in Value) (Value, error) {
		v, err := e.Read("counter", "k")
		if err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("counter", "k", dynamo.NInt(v.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		e.crash("after-write", "")
		return dynamo.S("done"), nil
	}, "counter")
	if _, err := f.invoke("w", dynamo.Null); !errors.Is(err, platform.ErrCrashed) {
		t.Fatalf("first attempt: %v", err)
	}
	// Client retry (what a provider's automatic retry would do).
	f.mustInvoke("w", dynamo.Null)
	if got := f.readData("w", "counter", "k"); got.Int() != 2 {
		t.Errorf("baseline counter = %v (double execution expected: the write landed twice)", got)
	}
}

func TestCallbackAblationReproducesFigure9Anomaly(t *testing.T) {
	// With callbacks disabled (ablation), kill the callee after it marks
	// done but before returning. The caller's invoke log never gets the
	// result, so its re-execution re-invokes the callee; once the callee's
	// GC has collected the intent, the callee re-executes and the effect
	// duplicates — exactly the Figure 9 scenario the callback prevents.
	// Without callbacks the caller's invoke log never records the callee's
	// result. Kill the caller right after its callee ("mid") completes;
	// once mid's GC collects the finished intent and invoke log (its own
	// collector runs "at its own pace", §4.5), the caller's re-execution
	// finds no result and re-invokes mid — whose intent is gone — so mid
	// re-executes, mints a FRESH instance id for its own callee (its invoke
	// log was collected), and the leaf's counter duplicates. This is
	// Figure 9's anomaly, reproduced by ablating the callback.
	plan := &platform.CrashOnce{Function: "caller", Label: "body:done"}
	cfg := Config{RowCap: 4, T: time.Millisecond, ICMinAge: time.Millisecond, DisableCallbacks: true}
	f := newFixture(t, withConfig(cfg), withFaults(plan))
	f.fn("leaf", counterBody, "counter")
	f.fn("mid", func(e *Env, in Value) (Value, error) {
		return e.SyncInvoke("leaf", dynamo.S("k"))
	})
	f.fn("caller", func(e *Env, in Value) (Value, error) {
		return e.SyncInvoke("mid", dynamo.Null)
	})
	_, err := f.invoke("caller", dynamo.Null)
	if !errors.Is(err, platform.ErrCrashed) {
		t.Fatalf("caller should crash after the invoke, got %v", err)
	}
	if got := f.readData("leaf", "counter", "k"); got.Int() != 1 {
		t.Fatalf("counter = %v before GC", got)
	}
	// Let mid's GC collect the completed intent and its invoke log.
	time.Sleep(5 * time.Millisecond)
	if _, err := f.rts["mid"].RunGarbageCollector(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := f.rts["mid"].RunGarbageCollector(); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.store.TableItemCount(f.rts["mid"].intentTable); n != 0 {
		t.Fatalf("%d mid intents survived GC", n)
	}
	// The caller's IC re-executes the caller; its invoke log has no result.
	f.recoverAll()
	if got := f.readData("leaf", "counter", "k"); got.Int() != 2 {
		t.Errorf("counter = %v; expected the ablation to double-execute (=2)", got)
	}
}

func TestCallbackPreventsFigure9Anomaly(t *testing.T) {
	// Same scenario with callbacks ON: the caller holds the result before
	// the callee marks done, so recovery returns the logged result and the
	// counter stays at 1.
	plan := &platform.CrashOnce{Function: "caller", Label: "body:done"}
	cfg := Config{RowCap: 4, T: time.Millisecond, ICMinAge: time.Millisecond}
	f := newFixture(t, withConfig(cfg), withFaults(plan))
	f.fn("leaf", counterBody, "counter")
	f.fn("mid", func(e *Env, in Value) (Value, error) {
		return e.SyncInvoke("leaf", dynamo.S("k"))
	})
	f.fn("caller", func(e *Env, in Value) (Value, error) {
		return e.SyncInvoke("mid", dynamo.Null)
	})
	_, err := f.invoke("caller", dynamo.Null)
	if !errors.Is(err, platform.ErrCrashed) {
		t.Fatalf("caller should crash after the invoke, got %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	f.rts["mid"].RunGarbageCollector()
	time.Sleep(5 * time.Millisecond)
	f.rts["mid"].RunGarbageCollector()
	f.recoverAll()
	if got := f.readData("leaf", "counter", "k"); got.Int() != 1 {
		t.Errorf("counter = %v, want 1 (callback should prevent re-execution)", got)
	}
}

func TestConcurrentDuplicateRestartsConverge(t *testing.T) {
	// Even if the "IC" floods the system with duplicate restarts of a live
	// instance, at-most-once per step holds. A duplicate that read the
	// counter after another one's write holds a value the read log does not
	// (readlog.go): it must stop with ErrInstanceSuperseded, never write.
	f := newFixture(t)
	f.fn("w", counterBody, "counter")
	ev := envelope{Kind: kindCall, InstanceID: "dup-1", Input: dynamo.S("k")}
	done := make(chan error, 10)
	for i := 0; i < 10; i++ {
		go func() {
			_, err := f.plat.Invoke("w", ev.encode())
			done <- err
		}()
	}
	succeeded := 0
	for i := 0; i < 10; i++ {
		switch err := <-done; {
		case err == nil:
			succeeded++
		case !errors.Is(err, ErrInstanceSuperseded):
			t.Fatal(err)
		}
	}
	if succeeded == 0 {
		t.Error("all 10 duplicate executions were superseded; one must win")
	}
	if got := f.readData("w", "counter", "k"); got.Int() != 1 {
		t.Errorf("counter = %v after 10 duplicate executions, want 1", got)
	}
}

func TestChaoticCrashStorm(t *testing.T) {
	// Probabilistic chaos: 30 workflow requests under a 2% per-op crash
	// rate across all functions; after recovery, counters must equal the
	// request count exactly.
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	plan := &platform.CrashProb{P: 0.02, Seed: 7}
	f := newFixture(t, withFaults(plan))
	f.fn("back", counterBody, "counter")
	f.fn("front", func(e *Env, in Value) (Value, error) {
		if _, err := e.SyncInvoke("back", dynamo.S("total")); err != nil {
			return dynamo.Null, err
		}
		v, err := e.Read("state", "n")
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.Null, e.Write("state", "n", dynamo.NInt(v.Int()+1))
	}, "state")
	// Each request carries a stable instance id, modelling a provider
	// request id that survives client retries: a crash before the intent is
	// even logged is the retry's job; everything after is Beldi's.
	const reqs = 30
	for i := 0; i < reqs; i++ {
		ev := envelope{Kind: kindCall, InstanceID: fmt.Sprintf("storm-%03d", i), Input: dynamo.Null}
		for attempt := 0; attempt < 20; attempt++ {
			if _, err := f.plat.Invoke("front", ev.encode()); err == nil {
				break
			}
		}
	}
	f.plat.Drain()
	plan.P = 0 // stop the storm so recovery can make progress
	f.recoverAll()
	if got := f.readData("back", "counter", "total"); got.Int() != reqs {
		t.Errorf("backend total = %v, want %d", got, reqs)
	}
	if got := f.readData("front", "state", "n"); got.Int() != reqs {
		t.Errorf("front n = %v, want %d", got, reqs)
	}
}

func TestICRestartsOnlyStaleInstances(t *testing.T) {
	f := newFixture(t, withConfig(Config{RowCap: 4, T: time.Hour, ICMinAge: time.Hour}))
	var fail atomic.Bool
	fail.Store(true)
	f.fn("flaky", func(e *Env, in Value) (Value, error) {
		if fail.Load() {
			return dynamo.Null, errors.New("boom")
		}
		return dynamo.S("ok"), nil
	})
	f.invokeAs("flaky", "flaky-1", dynamo.Null) //nolint:errcheck // its row stays pending
	fail.Store(false)
	// ICMinAge is an hour: a fresh failure is not restarted yet.
	if n, _ := f.rts["flaky"].RunIntentCollector(); n != 0 {
		t.Errorf("IC restarted %d fresh instances", n)
	}
}

func TestICClaimPreventsDoubleRestart(t *testing.T) {
	f := newFixture(t)
	var fail atomic.Bool
	fail.Store(true)
	f.fn("flaky", func(e *Env, in Value) (Value, error) {
		if fail.Load() {
			return dynamo.Null, errors.New("boom")
		}
		return dynamo.S("ok"), nil
	})
	f.invokeAs("flaky", "flaky-1", dynamo.Null) //nolint:errcheck // its row stays pending
	fail.Store(false)
	time.Sleep(2 * time.Millisecond)
	// Two collectors race: only one restart total may be issued.
	rt := f.rts["flaky"]
	n1, err1 := rt.RunIntentCollector()
	n2, err2 := rt.RunIntentCollector()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if n1+n2 != 1 {
		t.Errorf("restarts = %d + %d, want exactly 1", n1, n2)
	}
	f.plat.Drain()
}

func TestTimeoutedInstanceIsRecovered(t *testing.T) {
	// An instance that exceeds its platform timeout dies at the next op
	// boundary; the IC finishes the job. Its first write wrote its intent.
	f := newFixture(t)
	var slow atomic.Bool
	slow.Store(true)
	f.fn("slow", func(e *Env, in Value) (Value, error) {
		v, err := e.Read("counter", "k")
		if err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("counter", "k", dynamo.NInt(v.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		if slow.Load() {
			time.Sleep(50 * time.Millisecond)
		}
		if err := e.Write("counter", "j", dynamo.NInt(v.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("done"), nil
	}, "counter")
	// Re-register with a short timeout.
	f.plat.Register("slow", f.rts["slow"].Handler(), 10*time.Millisecond)
	if _, err := f.invoke("slow", dynamo.Null); !errors.Is(err, platform.ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	slow.Store(false)
	f.recoverAll()
	for _, key := range []string{"k", "j"} {
		if got := f.readData("slow", "counter", key); got.Int() != 1 {
			t.Errorf("counter %s = %v, want 1", key, got)
		}
	}
}

func TestSeqSourceIsolationBetweenRuntimes(t *testing.T) {
	// Sanity: distinct runtimes mint ids from distinct prefixes, so callee
	// ids never collide across SSFs in the fixtures.
	a := &uuid.Seq{Prefix: "a"}
	b := &uuid.Seq{Prefix: "b"}
	if a.NewString() == b.NewString() {
		t.Error("collision")
	}
}
