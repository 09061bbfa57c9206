package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/storage/storagetest"
)

func newTimerRig(t *testing.T) (*Broker, *clock.Manual, *TimerService) {
	t.Helper()
	b, clk := newTestBroker(t)
	b.MustCreate("q", Options{})
	ts, err := NewTimerService(b, TimerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return b, clk, ts
}

func TestTimerOneShotFires(t *testing.T) {
	b, clk, ts := newTimerRig(t)
	if err := ts.Schedule(TimerSpec{ID: "t1", Queue: "q", Body: dynamo.S("ding"), Delay: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if n, err := ts.FireDue(); err != nil || n != 0 {
		t.Fatalf("FireDue before due = (%d, %v), want (0, nil)", n, err)
	}
	clk.Advance(150 * time.Millisecond)
	if n, err := ts.FireDue(); err != nil || n != 1 {
		t.Fatalf("FireDue at due = (%d, %v), want (1, nil)", n, err)
	}
	msgs, err := b.Receive("q", 10)
	if err != nil || len(msgs) != 1 || msgs[0].Body.Str() != "ding" {
		t.Fatalf("Receive = (%v, %v), want one %q message", msgs, err, "ding")
	}
	// One-shot: the registration is consumed with the fire.
	if regs, _ := ts.Timers(); len(regs) != 0 {
		t.Fatalf("registrations after fire = %v, want none", regs)
	}
	if n, _ := ts.FireDue(); n != 0 {
		t.Fatalf("second FireDue fired %d, want 0 (exactly once)", n)
	}
}

func TestTimerPeriodicCatchesUpOnePerDuePeriod(t *testing.T) {
	b, clk, ts := newTimerRig(t)
	err := ts.Schedule(TimerSpec{ID: "tick", Queue: "q", Body: dynamo.S("tick"),
		Delay: 100 * time.Millisecond, Period: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(350 * time.Millisecond) // dues at 100, 200, 300 have all passed
	total := 0
	for i := 0; i < 10; i++ {
		n, err := ts.FireDue()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total != 3 {
		t.Fatalf("catch-up fired %d occurrences, want 3", total)
	}
	msgs, err := b.Receive("q", 10)
	if err != nil || len(msgs) != 3 {
		t.Fatalf("Receive = (%d msgs, %v), want 3", len(msgs), err)
	}
	ids := map[string]bool{}
	for _, m := range msgs {
		ids[m.ID] = true
	}
	if len(ids) != 3 {
		t.Fatalf("occurrence ids not distinct: %v", ids)
	}
	// Still registered: periodic timers survive their fires.
	if regs, _ := ts.Timers(); len(regs) != 1 {
		t.Fatalf("registrations = %v, want the periodic timer", regs)
	}
}

func TestTimerScheduleIsIdempotent(t *testing.T) {
	_, clk, ts := newTimerRig(t)
	spec := TimerSpec{ID: "once", Queue: "q", Body: dynamo.S("x"), Delay: 10 * time.Millisecond}
	if err := ts.Schedule(spec); err != nil {
		t.Fatal(err)
	}
	if err := ts.Schedule(spec); err != nil {
		t.Fatalf("re-Schedule = %v, want nil (idempotent)", err)
	}
	clk.Advance(20 * time.Millisecond)
	if n, _ := ts.FireDue(); n != 1 {
		t.Fatalf("fired %d, want 1 (duplicate registration must not double-fire)", n)
	}
}

func TestTimerCancel(t *testing.T) {
	_, clk, ts := newTimerRig(t)
	if err := ts.Schedule(TimerSpec{ID: "t", Queue: "q", Body: dynamo.Null, Delay: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := ts.Cancel("t"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if n, _ := ts.FireDue(); n != 0 {
		t.Fatalf("canceled timer fired %d times", n)
	}
}

// TestTimerRacingFirersFireExactlyOnce runs two services over the same table
// and fires concurrently: the transactional advance guard must collapse the
// race to one enqueued occurrence.
func TestTimerRacingFirersFireExactlyOnce(t *testing.T) {
	b, clk, ts1 := newTimerRig(t)
	ts2, err := NewTimerService(b, TimerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts1.Schedule(TimerSpec{ID: "contested", Queue: "q", Body: dynamo.S("x"), Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	var wg sync.WaitGroup
	fired := make([]int, 2)
	for i, ts := range []*TimerService{ts1, ts2} {
		wg.Add(1)
		go func(i int, ts *TimerService) {
			defer wg.Done()
			n, err := ts.FireDue()
			if err != nil {
				t.Error(err)
			}
			fired[i] = n
		}(i, ts)
	}
	wg.Wait()
	if total := fired[0] + fired[1]; total != 1 {
		t.Fatalf("racing firers fired %d times total, want exactly 1", total)
	}
	if n, _ := b.Depth("q"); n != 1 {
		t.Fatalf("queue depth = %d, want exactly 1 occurrence", n)
	}
}

// TestTimerPumpPushWakeup pins the pump's push path: with no registered
// timers the pump parks on a huge fallback interval, and a fresh Schedule
// must wake it through the timer table's commit stream — the fired message
// appears long before any poll timer could have.
func TestTimerPumpPushWakeup(t *testing.T) {
	b := NewBroker(BrokerOptions{Store: dynamo.NewStore()})
	b.MustCreate("q", Options{})
	ts, err := NewTimerService(b, TimerOptions{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts.Start()
	defer ts.Stop()
	time.Sleep(20 * time.Millisecond) // park on the subscription
	if err := ts.Schedule(TimerSpec{ID: "now", Queue: "q", Body: dynamo.S("pushed")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		msgs, err := b.Receive("q", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 1 {
			if msgs[0].Body.Str() != "pushed" {
				t.Fatalf("fired body = %q, want %q", msgs[0].Body.Str(), "pushed")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timer did not fire: push wakeup lost and fallback poll is an hour out")
		}
		time.Sleep(time.Millisecond)
	}
	if ts.Metrics().Wakeups.Load() == 0 {
		t.Error("Wakeups = 0, want at least one push wakeup")
	}
}

// TestTimerStopInterruptsIdleWait pins that Stop returns promptly while the
// pump is parked with a long fallback interval.
func TestTimerStopInterruptsIdleWait(t *testing.T) {
	b := NewBroker(BrokerOptions{Store: dynamo.NewStore()})
	b.MustCreate("q", Options{})
	ts, err := NewTimerService(b, TimerOptions{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts.Start()
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		ts.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not interrupt an idle wait with PollInterval = 1h")
	}
}

// TestTimerIdlePumpScansOncePerCycle pins the pump's cost while nothing is
// due: each cycle — here one per Schedule of a far-off timer, which wakes the
// parked pump — is ONE scan of the timer table, serving both "what is due"
// and "when is the next one due".
func TestTimerIdlePumpScansOncePerCycle(t *testing.T) {
	counted := storagetest.NewCounting(dynamo.NewStore())
	b := NewBroker(BrokerOptions{Store: counted})
	b.MustCreate("q", Options{})
	ts, err := NewTimerService(b, TimerOptions{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	scans := func() int { return counted.Count(timerTable, "scan") }
	cycle := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); scans() < n; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("pump stuck at %d scans, waiting for cycle %d", scans(), n)
			}
		}
	}
	ts.Start()
	defer ts.Stop()
	cycle(1) // the pump subscribed before this scan: no Schedule below is missed
	const schedules = 5
	for i := 1; i <= schedules; i++ {
		if err := ts.Schedule(TimerSpec{ID: fmt.Sprint("far", i), Queue: "q", Delay: time.Hour}); err != nil {
			t.Fatal(err)
		}
		cycle(1 + i)
	}
	ts.Stop()
	if got := scans(); got != 1+schedules {
		t.Errorf("%d idle cycles cost %d scans of the timer table, want %d", 1+schedules, got, 1+schedules)
	}
}
