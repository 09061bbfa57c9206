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

// fireLog is a Fire for tests: each occurrence puts a row, keyed by its id,
// into the "fired" table, and its run records the occurrence once the fire
// has committed.
type fireLog struct {
	mu  sync.Mutex
	ran []occurrence
}

type occurrence struct {
	target, id string
	body       Value
}

func newFireLog(t *testing.T, b *Broker) *fireLog {
	t.Helper()
	if err := b.store.CreateTable(dynamo.Schema{Name: "fired", HashKey: "Id"}); err != nil {
		t.Fatal(err)
	}
	return &fireLog{}
}

func (l *fireLog) fire(target, id string, body Value) (dynamo.TxOp, func(), error) {
	put := dynamo.TxOp{Table: "fired", Key: dynamo.HK(dynamo.S(id)),
		Put: dynamo.Item{"Id": dynamo.S(id), "Body": body}, Cond: dynamo.NotExists(dynamo.A("Id"))}
	return put, func() {
		l.mu.Lock()
		l.ran = append(l.ran, occurrence{target, id, body})
		l.mu.Unlock()
	}, nil
}

// occurrences returns the runs so far.
func (l *fireLog) occurrences() []occurrence {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]occurrence(nil), l.ran...)
}

func newTimerService(t *testing.T, b *Broker, l *fireLog, poll time.Duration) *TimerService {
	t.Helper()
	ts, err := NewTimerService(b, TimerOptions{Fire: l.fire, PollInterval: poll})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func newTimerRig(t *testing.T) (*Broker, *clock.Manual, *TimerService, *fireLog) {
	t.Helper()
	b, clk := newTestBroker(t)
	l := newFireLog(t, b)
	return b, clk, newTimerService(t, b, l, 0), l
}

func TestTimerOneShotFires(t *testing.T) {
	b, clk, ts, l := newTimerRig(t)
	if err := ts.Schedule(TimerSpec{ID: "t1", Target: "fn", Body: dynamo.S("ding"), Delay: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if n, err := ts.FireDue(); err != nil || n != 0 {
		t.Fatalf("FireDue before due = (%d, %v), want (0, nil)", n, err)
	}
	clk.Advance(150 * time.Millisecond)
	if n, err := ts.FireDue(); err != nil || n != 1 {
		t.Fatalf("FireDue at due = (%d, %v), want (1, nil)", n, err)
	}
	ran := l.occurrences()
	if len(ran) != 1 || ran[0].target != "fn" || ran[0].body.Str() != "ding" {
		t.Fatalf("fired %v, want one %q occurrence of fn", ran, "ding")
	}
	if n, _ := b.store.TableItemCount("fired"); n != 1 {
		t.Fatalf("fired rows = %d, want the occurrence's", n)
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
	_, clk, ts, l := newTimerRig(t)
	err := ts.Schedule(TimerSpec{ID: "tick", Target: "fn", Body: dynamo.S("tick"),
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
	ids := map[string]bool{}
	for _, o := range l.occurrences() {
		ids[o.id] = true
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
	_, clk, ts, _ := newTimerRig(t)
	spec := TimerSpec{ID: "once", Target: "fn", Body: dynamo.S("x"), Delay: 10 * time.Millisecond}
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
	_, clk, ts, _ := newTimerRig(t)
	if err := ts.Schedule(TimerSpec{ID: "t", Target: "fn", Body: dynamo.Null, Delay: 10 * time.Millisecond}); err != nil {
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
// race to one committed occurrence.
func TestTimerRacingFirersFireExactlyOnce(t *testing.T) {
	b, clk, ts1, l := newTimerRig(t)
	ts2 := newTimerService(t, b, l, 0)
	if err := ts1.Schedule(TimerSpec{ID: "contested", Target: "fn", Body: dynamo.S("x"), Delay: time.Millisecond}); err != nil {
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
	if n, _ := b.store.TableItemCount("fired"); n != 1 || len(l.occurrences()) != 1 {
		t.Fatalf("fired rows = %d, runs %v, want exactly 1 occurrence", n, l.occurrences())
	}
}

// TestTimerPumpPushWakeup pins the pump's push path: with no registered
// timers the pump parks on a huge fallback interval, and a fresh Schedule
// must wake it through the timer table's commit stream — the occurrence
// fires long before any poll timer could have.
func TestTimerPumpPushWakeup(t *testing.T) {
	b := NewBroker(BrokerOptions{Store: dynamo.NewStore()})
	l := newFireLog(t, b)
	ts := newTimerService(t, b, l, time.Hour)
	ts.Start()
	defer ts.Stop()
	time.Sleep(20 * time.Millisecond) // park on the subscription
	if err := ts.Schedule(TimerSpec{ID: "now", Target: "fn", Body: dynamo.S("pushed")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ran := l.occurrences(); len(ran) == 1 {
			if ran[0].body.Str() != "pushed" {
				t.Fatalf("fired body = %q, want %q", ran[0].body.Str(), "pushed")
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
	ts := newTimerService(t, b, newFireLog(t, b), time.Hour)
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
	ts := newTimerService(t, b, newFireLog(t, b), time.Hour)
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
		if err := ts.Schedule(TimerSpec{ID: fmt.Sprint("far", i), Target: "fn", Delay: time.Hour}); err != nil {
			t.Fatal(err)
		}
		cycle(1 + i)
	}
	ts.Stop()
	if got := scans(); got != 1+schedules {
		t.Errorf("%d idle cycles cost %d scans of the timer table, want %d", 1+schedules, got, 1+schedules)
	}
}

// TestTimerOlderRowFiresItsQueue: a registration written before timers named
// a Target, which holds the queue its fires were enqueued on, fires with that
// queue as its target and lists it as such.
func TestTimerOlderRowFiresItsQueue(t *testing.T) {
	b, _, ts, l := newTimerRig(t)
	row := dynamo.Item{attrTimerID: dynamo.S("old"), attrQueue: dynamo.S("invoke.fn"), attrBody: dynamo.S("x"),
		attrDue: dynamo.NInt(0), attrPeriod: dynamo.NInt(0), attrFires: dynamo.NInt(0), attrGen: dynamo.S("g")}
	if err := b.store.Put(timerTable, row, nil); err != nil {
		t.Fatal(err)
	}
	specs, err := ts.Timers()
	if err != nil || len(specs) != 1 || specs[0].Target != "invoke.fn" {
		t.Fatalf("Timers = %+v (%v), want the row with target invoke.fn", specs, err)
	}
	if n, err := ts.FireDue(); err != nil || n != 1 {
		t.Fatalf("FireDue = %d (%v), want 1", n, err)
	}
	if got := l.occurrences(); len(got) != 1 || got[0].target != "invoke.fn" {
		t.Errorf("occurrences = %+v, want one for invoke.fn", got)
	}
}
