package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

// TestIntegrationTimerDrivenCollectors: a deployment's collection loop
// drives recovery without manual pumping — a workflow whose first attempt
// failed is finished by the loop's own intent-collection pass.
func TestIntegrationTimerDrivenCollectors(t *testing.T) {
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    storagetest.Open(t),
		Platform: platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}}),
		Config:   beldi.Config{RowCap: 4, T: 10 * time.Millisecond, ICMinAge: 5 * time.Millisecond},
	})
	var failOnce sync.Once
	shouldFail := func() (failed bool) {
		failOnce.Do(func() { failed = true })
		return
	}
	// The attempt fails after its write, which wrote its intent row.
	rt := d.Function("flaky", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		v, err := e.Read("counter", "k")
		if err != nil {
			return beldi.Null, err
		}
		if err := e.Write("counter", "k", beldi.Int(v.Int()+1)); err != nil {
			return beldi.Null, err
		}
		if shouldFail() {
			return beldi.Null, fmt.Errorf("transient")
		}
		return beldi.Null, nil
	}, "counter")
	d.StartCollectors()
	defer d.Stop()
	d.Invoke("flaky", beldi.Null) //nolint:errcheck // first attempt fails
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, _ := beldi.PeekState(rt, "counter", "k"); got.Int() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timer-driven recovery never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// timerLoop is a started deployment on a manual clock with an hour-long
// ICMinAge and T: a collection loop that, left to its periods, would not
// run a pass for an hour. The "tick" SSF counts its runs.
type timerLoop struct {
	clk  *clock.Manual
	d    *beldi.Deployment
	da   *beldi.DurableAsync
	runs atomic.Int64
}

func newTimerLoop(t *testing.T) *timerLoop {
	t.Helper()
	l := &timerLoop{clk: clock.NewManual(time.Unix(1_000, 0))}
	l.d = beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    storagetest.Open(t),
		Platform: platform.New(platform.Options{}),
		Clock:    l.clk,
		Config:   beldi.Config{T: time.Hour, ICMinAge: time.Hour},
	})
	l.d.Function("tick", func(*beldi.Env, beldi.Value) (beldi.Value, error) {
		l.runs.Add(1)
		return beldi.Null, nil
	})
	l.da = l.d.EnableDurableAsync(beldi.DurableAsyncOptions{})
	l.d.StartCollectors()
	t.Cleanup(l.d.Stop)
	return l
}

// parked waits, on the wall clock, until the collection loop holds n waits
// on clk.
func parked(t *testing.T, clk *clock.Manual, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); clk.Waiters() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the collection loop holds %d waits, want %d", clk.Waiters(), n)
		}
	}
}

// ran waits, on the wall clock, until the tick's one occurrence has run and
// finished, then checks that it ran once.
func (l *timerLoop) ran(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		n, err := core.PendingIntents(l.d.Runtime("tick").Store(), "tick")
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 && l.runs.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the occurrence did not run: %d runs, %d intents pending", l.runs.Load(), n)
		}
	}
	if n := l.runs.Load(); n != 1 {
		t.Fatalf("the occurrence ran %d times, want 1", n)
	}
}

// TestScheduledTimerFiresOnTheDeploymentClock: a timer due in 5 s runs once
// the deployment's manual clock has advanced 5 s — ScheduleInvoke's pass
// armed the loop's next pass for the due time — with no wait on the wall
// clock for ICMinAge or for any poll interval.
func TestScheduledTimerFiresOnTheDeploymentClock(t *testing.T) {
	l := newTimerLoop(t)
	parked(t, l.clk, 1) // the loop's hour-long wait
	if err := l.da.ScheduleInvoke("five", "tick", beldi.Null, 5*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	parked(t, l.clk, 2) // the nudged pass ran and armed the wait for the due time
	if n := l.runs.Load(); n != 0 {
		t.Fatalf("ran %d times before the due time", n)
	}
	l.clk.Advance(5 * time.Second)
	l.ran(t)
}

// TestScheduleNudgesTheSleepingLoop: a timer due at once, scheduled while
// the loop sleeps out its hour, runs on the pass ScheduleInvoke asks for,
// without the clock moving.
func TestScheduleNudgesTheSleepingLoop(t *testing.T) {
	l := newTimerLoop(t)
	parked(t, l.clk, 1)
	if err := l.da.ScheduleInvoke("now", "tick", beldi.Null, 0, 0); err != nil {
		t.Fatal(err)
	}
	l.ran(t)
}

// TestPeriodicTimerRunsOncePerPeriod: a timer whose 5 s period is far below
// the loop's hour-long ICMinAge runs once per period as the deployment's
// manual clock advances, each pass that fires an occurrence arming the next
// pass for the next one's due time; a jump of three periods runs the three
// occurrences it passed in one pass.
func TestPeriodicTimerRunsOncePerPeriod(t *testing.T) {
	l := newTimerLoop(t)
	parked(t, l.clk, 1)
	if err := l.da.ScheduleInvoke("every5", "tick", beldi.Null, 5*time.Second, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	parked(t, l.clk, 2) // the nudged pass armed the wait for the first due time
	want := int64(0)
	for _, periods := range []int64{1, 1, 1, 3, 1} {
		l.clk.Advance(time.Duration(periods) * 5 * time.Second)
		want += periods
		for deadline := time.Now().Add(5 * time.Second); l.runs.Load() < want; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d runs after %d periods, want %d", l.runs.Load(), want, want)
			}
		}
		parked(t, l.clk, 2) // the pass that fired armed the wait for the next due time
		if n := l.runs.Load(); n != want {
			t.Fatalf("%d runs after %d periods, want %d", n, want, want)
		}
	}
}

// TestLoopRelaunchesAFailedAttemptWhenItComesDue: a workflow whose first
// attempt fails half an hour into the loop's hour-long period is relaunched
// when the attempt turns ICMinAge (1 h) old, not at the loop's second
// hourly pass: the first pass, which found the attempt too young, armed the
// next pass for its due time.
func TestLoopRelaunchesAFailedAttemptWhenItComesDue(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000, 0))
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    storagetest.Open(t),
		Platform: platform.New(platform.Options{}),
		Clock:    clk,
		Config:   beldi.Config{T: time.Hour, ICMinAge: time.Hour},
	})
	var attempts atomic.Int64
	rt := d.Function("flaky", func(e *beldi.Env, _ beldi.Value) (beldi.Value, error) {
		// The first effect writes the intent row the failed attempt leaves.
		if err := e.Write("done", "started", beldi.Int(1)); err != nil {
			return beldi.Null, err
		}
		if attempts.Add(1) == 1 {
			return beldi.Null, fmt.Errorf("transient")
		}
		return beldi.Null, e.Write("done", "k", beldi.Int(1))
	}, "done")
	d.StartCollectors()
	t.Cleanup(d.Stop)
	parked(t, clk, 1)
	clk.Advance(30 * time.Minute)
	if _, err := d.Invoke("flaky", beldi.Null); err == nil {
		t.Fatal("the first attempt did not fail")
	}
	clk.Advance(30 * time.Minute) // the hourly pass: the attempt is 30 min old
	parked(t, clk, 1)
	if n := attempts.Load(); n != 1 {
		t.Fatalf("%d attempts at the hourly pass, want 1: the attempt is younger than ICMinAge", n)
	}
	clk.Advance(30 * time.Minute) // the attempt is an hour old
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if v, _ := beldi.PeekState(rt, "done", "k"); v.Int() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not relaunched an hour after the failed attempt: %d attempts", attempts.Load())
		}
	}
}

// TestLoopRunsGCEveryT: with ICMinAge a sixth of T, the loop runs an
// intent-collection pass every ICMinAge and a garbage-collection pass on
// every sixth of them, once per T.
func TestLoopRunsGCEveryT(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000, 0))
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    storagetest.Open(t),
		Platform: platform.New(platform.Options{}),
		Clock:    clk,
		Config:   beldi.Config{T: time.Hour, ICMinAge: 10 * time.Minute},
	})
	rt := d.Function("idle", func(*beldi.Env, beldi.Value) (beldi.Value, error) { return beldi.Null, nil })
	d.StartCollectors()
	t.Cleanup(d.Stop)
	for n := 1; n <= 18; n++ {
		parked(t, clk, 1)
		clk.Advance(10 * time.Minute)
		parked(t, clk, 1) // the pass ran and armed the next wait
		if got := rt.StatsSnapshot().GCRuns; got != int64(n/6) {
			t.Fatalf("%d GC passes after %d min, want %d", got, 10*n, n/6)
		}
	}
}

// TestLoopBatchesFailedAttempts: 60 workflows whose every attempt fails,
// launched a minute apart through the loop's first hour, do not wake the
// loop once per attempt. With ICMinAge an hour, the loop runs at most five
// intent-collection passes an hour, each one query of the pending index,
// and still relaunches every attempt at least twice in three hours.
func TestLoopBatchesFailedAttempts(t *testing.T) {
	const workflows = 60
	clk := clock.NewManual(time.Unix(1_000, 0))
	store := storagetest.NewCounting(storagetest.Open(t))
	plat := platform.New(platform.Options{})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    store,
		Platform: plat,
		Clock:    clk,
		Config:   beldi.Config{T: 24 * time.Hour, ICMinAge: time.Hour}, // no GC pass in the test
	})
	var attempts atomic.Int64
	d.Function("broken", func(e *beldi.Env, _ beldi.Value) (beldi.Value, error) {
		// The first effect writes the intent row every failed attempt leaves.
		if err := e.Write("seen", "k", beldi.Int(1)); err != nil {
			return beldi.Null, err
		}
		attempts.Add(1)
		return beldi.Null, fmt.Errorf("broken")
	}, "seen")
	d.StartCollectors()
	t.Cleanup(d.Stop)
	step := func() {
		clk.Advance(time.Minute)
		parked(t, clk, 1) // a pass that came due has run and armed the next wait
	}
	parked(t, clk, 1)
	for range workflows {
		step()
		d.Invoke("broken", beldi.Null) //nolint:errcheck // every attempt fails
	}
	passes := func() int { return store.Count("broken.intent", "query") }
	before := passes()
	const hours = 3
	for range hours * 60 {
		step()
	}
	plat.Drain()
	t.Logf("%d passes, %d attempts in %d hours", passes()-before, attempts.Load(), hours)
	if n := passes() - before; n > 5*hours {
		t.Errorf("%d intent-collection passes in %d hours, want at most %d", n, hours, 5*hours)
	}
	if n := attempts.Load(); n < workflows*3 {
		t.Errorf("%d attempts of %d workflows in %d hours, want at least %d", n, workflows, hours, workflows*3)
	}
}
