package core

// Tests for the cluster seam: collector gating, fenced claims, and the
// claim-path fixes for assumptions that one process owns all tables.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/platform"
)

// fakeGate is a scriptable CollectorGate.
type fakeGate struct {
	owns  func(id string) bool
	fence func(id string) []dynamo.TxOp
}

func (g *fakeGate) OwnsIntent(id string) bool { return g.owns(id) }
func (g *fakeGate) ClaimFence(id string) []dynamo.TxOp {
	if g.fence == nil {
		return nil
	}
	return g.fence(id)
}

func TestCollectorGateScopesScan(t *testing.T) {
	f := newFixture(t, withFaults(&platform.CrashNthOp{Function: "w", N: 1}))
	rt := f.fn("w", func(e *Env, _ Value) (Value, error) {
		if err := e.Write("state", "k", dynamo.NInt(1)); err != nil {
			return dynamo.Null, err
		}
		return dynamo.Null, nil
	}, "state")

	// Crash right after intent registration (a launch with its id writes the
	// row on entry): one pending intent.
	if _, err := f.invokeAs("w", "w-1", dynamo.Null); err == nil {
		t.Fatal("seed crash did not fire")
	}

	// A gate that owns nothing: the collector must not restart the intent.
	rt.SetCollectorGate(&fakeGate{owns: func(string) bool { return false }})
	time.Sleep(2 * time.Millisecond) // exceed ICMinAge
	n, err := rt.RunIntentCollector()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("gated-out collector restarted %d intents", n)
	}

	// A gate that owns everything (with no extra fence): normal collection.
	rt.SetCollectorGate(&fakeGate{owns: func(string) bool { return true }})
	f.recoverAll()
	v, err := rt.PeekState("state", "k")
	if err != nil || v.Int() != 1 {
		t.Fatalf("state after gated recovery = %v (%v)", v, err)
	}
}

func TestFencedClaimRejectedAndCounted(t *testing.T) {
	f := newFixture(t, withFaults(&platform.CrashNthOp{Function: "w", N: 1}))
	rt := f.fn("w", func(e *Env, _ Value) (Value, error) {
		return dynamo.Null, e.Write("state", "k", dynamo.NInt(1))
	}, "state")
	if _, err := f.invokeAs("w", "w-1", dynamo.Null); err == nil {
		t.Fatal("seed crash did not fire")
	}
	time.Sleep(2 * time.Millisecond) // exceed ICMinAge

	// An authority table whose row no longer matches the worker's cached
	// epoch: every claim must fail atomically and count as fenced.
	if err := f.store.CreateTable(dynamo.Schema{Name: "auth", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Put("auth", dynamo.Item{"K": dynamo.S("p"), "Epoch": dynamo.NInt(7)}, nil); err != nil {
		t.Fatal(err)
	}
	rt.SetCollectorGate(&fakeGate{
		owns: func(string) bool { return true },
		fence: func(string) []dynamo.TxOp {
			return []dynamo.TxOp{{
				Table: "auth", Key: dynamo.HK(dynamo.S("p")),
				Cond:  dynamo.Eq(dynamo.A("Epoch"), dynamo.NInt(6)), // stale
				Check: true,
			}}
		},
	})
	n, err := rt.RunIntentCollector()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("fenced collector restarted %d intents", n)
	}
	if got := rt.Stats().FencedClaims.Load(); got < 1 {
		t.Fatalf("FencedClaims = %d, want ≥ 1", got)
	}

	// With the fence current, the same claim goes through and the workflow
	// completes exactly once.
	rt.SetCollectorGate(&fakeGate{
		owns: func(string) bool { return true },
		fence: func(string) []dynamo.TxOp {
			return []dynamo.TxOp{{
				Table: "auth", Key: dynamo.HK(dynamo.S("p")),
				Cond:  dynamo.Eq(dynamo.A("Epoch"), dynamo.NInt(7)),
				Check: true,
			}}
		},
	})
	f.recoverAll()
	v, err := rt.PeekState("state", "k")
	if err != nil || v.Int() != 1 {
		t.Fatalf("state after fenced recovery = %v (%v)", v, err)
	}
	if err := Fsck(rt); err != nil {
		t.Errorf("fsck: %v", err)
	}
}

// TestLateCompletionDoesNotResurrectIntent is the multi-worker regression
// for markIntentDone: an instance that outlives its garbage-collected
// intent (possible once workers with independent clocks share a backend)
// must not upsert a half-formed intent row back into the table.
func TestLateCompletionDoesNotResurrectIntent(t *testing.T) {
	f := newFixture(t)
	rt := f.fn("w", func(e *Env, _ Value) (Value, error) {
		return dynamo.Null, nil
	}, "state")

	// The intent was completed and collected long ago; a zombie instance
	// now reports its (identical, deduplicated) completion.
	if err := rt.markIntentDone("ghost-instance", dynamo.S("late")); err != nil {
		t.Fatalf("late completion errored: %v", err)
	}
	if _, ok, err := f.store.Get(rt.intentTable, dynamo.HK(dynamo.S("ghost-instance"))); err != nil || ok {
		t.Fatalf("late completion resurrected the intent row (ok=%v err=%v)", ok, err)
	}
	// And the pending index stays empty: nothing for any collector to chew.
	items, err := f.store.QueryIndex(rt.intentTable, indexPending, dynamo.S(pendingMarker), dynamo.QueryOpts{})
	if err != nil || len(items) != 0 {
		t.Fatalf("pending index after late completion: %d rows (%v)", len(items), err)
	}
}

// TestCollectIntentsReportsTheFirstOwnedDueTime: a pass that finds no row
// due reports the due time of the first pending row its gate owns — not of
// a row another worker's collector owns, so a worker's loop is not woken for
// it — and puts an attempt's due time off to at least ICMinAge/dueBatches
// after the pass, so the attempts that come due within that span share one
// pass.
func TestCollectIntentsReportsTheFirstOwnedDueTime(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000, 0))
	f := newFixture(t, withClock(clk), withConfig(Config{T: time.Hour, ICMinAge: time.Hour}))
	rt := f.fn("w", func(*Env, Value) (Value, error) { return dynamo.Null, errors.New("broken") })
	t0 := clk.Now()
	at := func(d time.Duration) int64 { return t0.Add(d).UnixMicro() }
	// Launched with their ids, the failed attempts leave their rows pending.
	f.invokeAs("w", "w-1", dynamo.Null) //nolint:errcheck // fails: due at t0 + 1 h
	clk.Advance(50 * time.Minute)
	f.invokeAs("w", "w-2", dynamo.Null) //nolint:errcheck // fails: due at t0 + 1 h 50 min
	items, err := rt.store.QueryIndex(rt.intentTable, indexPending, dynamo.S(pendingMarker), dynamo.QueryOpts{})
	if err != nil || len(items) != 2 {
		t.Fatalf("%d pending intents (%v), want 2", len(items), err)
	}
	first := items[0][attrInstanceID].Str()
	for _, c := range []struct {
		name string
		now  time.Duration // since t0
		owns func(string) bool
		want int64
	}{
		{"no gate, the first row due after the batching span", 40 * time.Minute, nil, at(time.Hour)},
		{"no gate, the first row due within the span", 55 * time.Minute, nil, at(55*time.Minute + time.Hour/dueBatches)},
		{"the gate owns the second row only", 55 * time.Minute, func(id string) bool { return id != first }, at(110 * time.Minute)},
		{"the gate owns no row", 55 * time.Minute, func(string) bool { return false }, 0},
	} {
		clk.Advance(c.now - clk.Now().Sub(t0))
		rt.SetCollectorGate(nil)
		if c.owns != nil {
			rt.SetCollectorGate(&fakeGate{owns: c.owns})
		}
		n, due, err := rt.CollectIntents()
		if err != nil || n != 0 {
			t.Fatalf("%s: %d restarted (%v), want 0", c.name, n, err)
		}
		if due != c.want {
			t.Errorf("%s: due %d µs after t0, want %d", c.name, due-t0.UnixMicro(), c.want-t0.UnixMicro())
		}
	}
}
