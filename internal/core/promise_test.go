package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// Durable promises: AsyncInvokePromise fans work out as registered intents
// whose completions post into the caller's mailbox; Await is a logged step.
// These tests pin the fan-out/fan-in exactly-once story across crashes on
// the awaiting side, the mailbox's single-assignment discipline, and the
// GC/fsck lifecycle of the cells.

// fanWorkerBody returns a worker that bumps a per-index counter (the
// exactly-once witness) and returns a value containing a token drawn from
// seq — unique per physical execution, so identical observed results can
// only come from the durable mailbox, never from silent re-execution.
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
			// resolutions of one index saw the same token — the mailbox value,
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
	done := make(chan struct{})
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

// TestPromiseMailboxReapedWithOwner pins the cell lifecycle: cells survive
// while the owning intent lives (a replayed awaiter may still need them)
// and die in the same GC horizon as the owner.
func TestPromiseMailboxReapedWithOwner(t *testing.T) {
	f := newFixture(t, withConfig(Config{RowCap: 4, T: 30 * time.Millisecond, ICMinAge: time.Millisecond}))
	var seq atomic.Int64
	f.fn("work", fanWorkerBody(&seq), "count")
	f.fn("driver", func(e *Env, in Value) (Value, error) {
		p, err := e.AsyncInvokePromise("work", dynamo.NInt(1))
		if err != nil {
			return dynamo.Null, err
		}
		return p.Await(e)
	})
	f.mustInvoke("driver", dynamo.Null)
	f.plat.Drain()

	cells, err := f.rts["driver"].mailbox.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("cells after completion = %v, want 1", cells)
	}

	// Two GC passes past T: the first stamps finish times, the second (after
	// the horizon) recycles the intent and must take the cell with it.
	f.gcAll()
	time.Sleep(80 * time.Millisecond)
	st := f.gcAll()
	if st.MailboxReaped == 0 {
		t.Errorf("GC reaped no mailbox cells: %+v", st)
	}
	cells, err = f.rts["driver"].mailbox.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Errorf("cells after GC = %v, want none", cells)
	}
	for _, rt := range f.rts {
		if err := Fsck(rt); err != nil {
			t.Errorf("fsck %s: %v", rt.fn, err)
		}
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
