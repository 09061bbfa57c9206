package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
)

// TestAsyncFirstRunReadsItsIntentOnceOld: an async callee's first fire
// skips reading its intent only while it is younger than ICMinAge, and only
// the fire that follows its caller's own applied insert is first. Each case
// delivers a run of the callee after the callee has run once and its intent
// has been collected, so the run must do nothing. The callee calls bump,
// which reads a counter and writes counter+1: a collected intent that runs
// again has lost its invoke log with it, so it calls bump under a fresh id
// and the counter reads 2. (Its own write would not show it: the write-log
// entry stays in the DAAL row, and the write replays.) The crash-point
// referees cannot see this: their recovery runs use an ICMinAge of 1 ns,
// and their leaves write what they are given.
func TestAsyncFirstRunReadsItsIntentOnceOld(t *testing.T) {
	const icMinAge, gcT = 100 * time.Millisecond, time.Second
	for _, tc := range []struct {
		name string
		// kill is the caller's crash label, "" for none.
		kill string
		// run returns the delivery under test, after the callee ran once.
		run func(t *testing.T, f *fixture, clk *clock.Manual) func()
	}{{
		// The first fire is held past ICMinAge; the collector relaunches the
		// registered intent, which runs, completes and is collected. Then the
		// held fire arrives: it is older than ICMinAge, so it must read the
		// row and find it gone.
		name: "held first fire",
		run: func(t *testing.T, f *fixture, clk *clock.Manual) func() {
			f.held.hold()
			f.mustInvoke("spawn", dynamo.Null)
			held := f.held.take()
			if len(held) != 1 {
				t.Fatalf("%d fires held, want the callee's one", len(held))
			}
			clk.Advance(icMinAge + time.Millisecond)
			f.held.hold()
			if n, err := f.rts["count"].RunIntentCollector(); err != nil || n != 1 {
				t.Fatalf("collector relaunched %d intents (%v), want the callee's", n, err)
			}
			relaunch := f.held.take()
			if len(relaunch) != 1 {
				t.Fatalf("%d relaunches held, want one", len(relaunch))
			}
			relaunch[0]()
			return held[0]
		},
	}, {
		// The caller dies right after its fire, which runs. Once the callee's
		// intent is collected, the caller's relaunch replays the step and
		// fires again: a replay's fire is not first, so it reads the row.
		name: "replayed fire",
		kill: "ainvoke:post:0.000001",
		run: func(t *testing.T, f *fixture, clk *clock.Manual) func() {
			if _, err := f.invoke("spawn", dynamo.Null); err == nil {
				t.Fatal("spawn survived its crash point")
			}
			f.plat.Drain()
			return func() {
				if n, err := f.rts["spawn"].RunIntentCollector(); err != nil || n != 1 {
					t.Fatalf("collector relaunched %d callers (%v), want the crashed one", n, err)
				}
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual(time.Unix(1_700_000_000, 0))
			opts := []fixtureOpt{withClock(clk), withConfig(Config{RowCap: 4, T: gcT, ICMinAge: icMinAge})}
			if tc.kill != "" {
				opts = append(opts, withFaults(&killAt{fn: "spawn", label: tc.kill}))
			}
			f := newFixture(t, opts...)
			f.fn("bump", func(e *Env, _ Value) (Value, error) {
				n, err := e.Read("c", "n")
				if err != nil {
					return dynamo.Null, err
				}
				return dynamo.Null, e.Write("c", "n", dynamo.NInt(n.Int()+1))
			}, "c")
			var runs atomic.Int64
			f.fn("count", func(e *Env, _ Value) (Value, error) {
				runs.Add(1)
				_, err := e.SyncInvoke("bump", dynamo.Null)
				return dynamo.Null, err
			})
			f.fn("spawn", func(e *Env, _ Value) (Value, error) {
				return dynamo.Null, e.AsyncInvoke("count", dynamo.Null)
			})

			deliver := tc.run(t, f, clk)
			if got := f.readData("bump", "c", "n"); got.Int() != 1 || runs.Load() != 1 {
				t.Fatalf("counter = %v after %d runs of the callee, want 1 after 1", got, runs.Load())
			}
			// Past T the collector recycles the done intent, its logs and
			// its write's log entry.
			for range 3 {
				clk.Advance(gcT + time.Millisecond)
				f.gcAll()
			}
			if intents, _, _ := f.rowsOf("count"); intents != 0 {
				t.Fatalf("count holds %d intents after the collection, want 0", intents)
			}
			deliver()
			f.plat.Drain()
			if got := f.readData("bump", "c", "n"); got.Int() != 1 || runs.Load() != 1 {
				t.Errorf("counter = %v after %d runs of the callee, want 1 after 1: a collected intent ran again", got, runs.Load())
			}
		})
	}
}

// TestAsyncFirstRunOpBudget prices an async run by its age, the edge of the
// first-run bound: a first fire younger than ICMinAge reads neither its
// intent nor its read log, so an instance with one read pays the fetch, the
// flush and the done mark; from ICMinAge on — when a collector may claim a
// relaunch — the same fire pays the intent fetch and the log load as every
// other run does.
func TestAsyncFirstRunOpBudget(t *testing.T) {
	const icMinAge = 100 * time.Millisecond
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	store := dynamo.NewStore()
	f := newFixture(t, withStore(store), withClock(clk), withConfig(Config{RowCap: 8, T: time.Second, ICMinAge: icMinAge}))
	rt := f.fn("r1", func(e *Env, _ Value) (Value, error) { return e.Read("kv", "k") }, "kv")
	for _, tc := range []struct {
		age           time.Duration
		ops, queries  int64
		intentFetches int64
	}{
		{0, 3, 1, 0},
		{icMinAge - time.Microsecond, 3, 1, 0},
		{icMinAge, 5, 2, 1},
	} {
		id := fmt.Sprintf("run-%d", tc.age)
		launched := rt.now()
		args := envelope{Kind: kindAsyncRun, InstanceID: id, Input: dynamo.S("r"), Async: true}
		if _, err := rt.ensureIntent(id, args, launched); err != nil { // the registration's row
			t.Fatal(err)
		}
		clk.Advance(tc.age)
		before := store.Metrics().Snapshot()
		run := args
		run.First, run.Launched = true, launched
		if _, err := f.plat.Invoke("r1", run.encode()); err != nil {
			t.Fatal(err)
		}
		d := store.Metrics().Snapshot().Sub(before)
		if d.TotalOps() != tc.ops || d.Ops["query"] != tc.queries || d.Ops["get"] != tc.intentFetches {
			t.Errorf("first run aged %v = %d ops (%d queries, %d gets); budget %d (%d, %d)",
				tc.age, d.TotalOps(), d.Ops["query"], d.Ops["get"], tc.ops, tc.queries, tc.intentFetches)
		}
	}
	if err := Fsck(rt); err != nil {
		t.Error(err)
	}
}
