package beldi_test

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/telemetry"
)

// These tests cover durable timers: a schedule's registration is a pending
// row of the intent table of the function it runs, keyed by the schedule
// id and due when its LastLaunch is ICMinAge old, and the intent
// collector's pass is what fires it: the claim puts and launches the
// occurrence's intent. They drive that pass by hand (RunAllCollectors) on
// a manual clock, with the platform running every launch inline, so each
// fire happens inside the pass that claims it.

// timerRig is one or more deployments of the "fn" SSF over one store and
// one manual clock. fn records every execution it runs.
type timerRig struct {
	store storage.Backend
	clk   *clock.Manual

	mu  sync.Mutex
	ran []timerRun
}

type timerRun struct {
	id    string
	input string
}

func newTimerRig(t *testing.T) *timerRig {
	return &timerRig{store: storagetest.Open(t), clk: clock.NewManual(time.Unix(1_000, 0))}
}

// deploy registers fn on a new deployment over the rig's store, with durable
// async enabled. ICMinAge is 10 ms, T long enough that no garbage collection
// interferes.
func (r *timerRig) deploy(t *testing.T) *beldi.Deployment {
	t.Helper()
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    r.store,
		Platform: platform.New(platform.Options{AsyncDispatch: func(run func()) { run() }}),
		Clock:    r.clk,
		Config:   beldi.Config{T: time.Hour, ICMinAge: 10 * time.Millisecond},
	})
	d.Function("fn", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		r.mu.Lock()
		r.ran = append(r.ran, timerRun{e.InstanceID(), in.Str()})
		r.mu.Unlock()
		return beldi.Null, e.Write("state", e.InstanceID(), in)
	}, "state")
	t.Cleanup(d.Stop)
	d.EnableDurableAsync(beldi.DurableAsyncOptions{})
	return d
}

// runs returns the executions so far.
func (r *timerRig) runs() []timerRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]timerRun(nil), r.ran...)
}

// pass runs one round of collection on d.
func pass(t *testing.T, d *beldi.Deployment) {
	t.Helper()
	if err := d.RunAllCollectors(); err != nil {
		t.Fatal(err)
	}
}

func (r *timerRig) pending(t *testing.T) int {
	t.Helper()
	n, err := core.PendingIntents(r.store, "fn")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTimerOneShotFires(t *testing.T) {
	r := newTimerRig(t)
	d := r.deploy(t)
	da := d.DurableAsync()
	if err := da.ScheduleInvoke("t1", "fn", beldi.Str("ding"), 100*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	pass(t, d)
	if ran := r.runs(); len(ran) != 0 {
		t.Fatalf("ran %v before the due time, want nothing", ran)
	}
	r.clk.Advance(150 * time.Millisecond)
	pass(t, d)
	ran := r.runs()
	if len(ran) != 1 || ran[0].input != "ding" {
		t.Fatalf("ran %v, want one %q occurrence", ran, "ding")
	}
	// One-shot: the occurrence was the schedule's last, and it is done.
	if n := r.pending(t); n != 0 {
		t.Fatalf("%d intents pending after the fire, want none", n)
	}
	r.clk.Advance(time.Second)
	pass(t, d)
	if ran := r.runs(); len(ran) != 1 {
		t.Fatalf("ran %d times after a second pass, want 1 (exactly once)", len(ran))
	}
	if err := d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerPeriodicCatchesUpOnePerDuePeriod(t *testing.T) {
	r := newTimerRig(t)
	d := r.deploy(t)
	da := d.DurableAsync()
	if err := da.ScheduleInvoke("tick", "fn", beldi.Str("tick"), 100*time.Millisecond, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(350 * time.Millisecond) // dues at 100, 200, 300 have all passed
	pass(t, d)                            // one pass fires every occurrence that is due
	ran := r.runs()
	if len(ran) != 3 {
		t.Fatalf("catch-up ran %d occurrences, want 3", len(ran))
	}
	ids := map[string]bool{}
	for _, run := range ran {
		ids[run.id] = true
	}
	if len(ids) != 3 {
		t.Fatalf("occurrence ids not distinct: %v", ids)
	}
	// Still scheduled: the registration, due at 400, is pending.
	if n := r.pending(t); n != 1 {
		t.Fatalf("%d intents pending, want the registration", n)
	}
	pass(t, d)
	if ran := r.runs(); len(ran) != 3 {
		t.Fatalf("a pass before the next due time ran %d occurrences in all, want 3", len(ran))
	}
	if err := d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerScheduleIsIdempotent(t *testing.T) {
	r := newTimerRig(t)
	d := r.deploy(t)
	da := d.DurableAsync()
	for range 2 {
		if err := da.ScheduleInvoke("once", "fn", beldi.Str("x"), 10*time.Millisecond, 0); err != nil {
			t.Fatalf("ScheduleInvoke = %v, want nil (idempotent)", err)
		}
	}
	if n := r.pending(t); n != 1 {
		t.Fatalf("%d occurrences registered, want 1", n)
	}
	r.clk.Advance(20 * time.Millisecond)
	pass(t, d)
	if ran := r.runs(); len(ran) != 1 {
		t.Fatalf("ran %d times, want 1 (a duplicate registration must not double-fire)", len(ran))
	}
	// The one-shot fired, so its registration is gone: scheduling the id
	// again is a new registration, whose occurrence has an id of its own.
	if err := da.ScheduleInvoke("once", "fn", beldi.Str("x"), 10*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(20 * time.Millisecond)
	pass(t, d)
	if ran := r.runs(); len(ran) != 2 || ran[0].id == ran[1].id {
		t.Fatalf("ran %v, want the two registrations' occurrences, with distinct ids", ran)
	}
}

// TestTimerRacingSchedulesRegisterOnce: deployments over one store that all
// schedule one periodic id at once — every worker running the same
// registration at start-up — register it once, so each occurrence runs
// once.
func TestTimerRacingSchedulesRegisterOnce(t *testing.T) {
	r := newTimerRig(t)
	ds := []*beldi.Deployment{r.deploy(t), r.deploy(t), r.deploy(t)}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := d.DurableAsync().ScheduleInvoke("boot", "fn", beldi.Null, 10*time.Millisecond, 10*time.Millisecond); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := r.pending(t); n != 1 {
		t.Fatalf("%d registrations, want 1", n)
	}
	for range 3 {
		r.clk.Advance(10 * time.Millisecond)
		for _, d := range ds {
			pass(t, d)
		}
	}
	if ran := r.runs(); len(ran) != 3 {
		t.Fatalf("3 periods ran %d occurrences, want 3", len(ran))
	}
}

func TestTimerCancel(t *testing.T) {
	r := newTimerRig(t)
	d := r.deploy(t)
	da := d.DurableAsync()
	if err := da.ScheduleInvoke("t", "fn", beldi.Null, 10*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := da.CancelInvoke("t", "fn"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(time.Second)
	pass(t, d)
	if ran := r.runs(); len(ran) != 0 {
		t.Fatalf("canceled timer ran %d times", len(ran))
	}
	if n := r.pending(t); n != 0 {
		t.Fatalf("%d intents pending after the cancel, want none", n)
	}

	// A periodic schedule canceled between occurrences stops there.
	if err := da.ScheduleInvoke("p", "fn", beldi.Null, 10*time.Millisecond, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		r.clk.Advance(10 * time.Millisecond)
		pass(t, d)
	}
	if err := da.CancelInvoke("p", "fn"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(time.Second)
	pass(t, d)
	if ran := r.runs(); len(ran) != 2 {
		t.Fatalf("periodic timer ran %d times, want the 2 occurrences before its cancel", len(ran))
	}
	if err := da.CancelInvoke("unknown", "fn"); err != nil {
		t.Fatalf("canceling an unknown id = %v, want nil", err)
	}
}

// TestTimerCancelRacingAClaim lets a collector pass fire the schedule a
// cancel is about to delete, just before the delete: the fire wins, its
// occurrence runs, and the cancel stops every later one — for a periodic
// schedule by deleting the registration the fire moved on a period.
func TestTimerCancelRacingAClaim(t *testing.T) {
	for _, period := range []time.Duration{0, 10 * time.Millisecond} {
		r := newTimerRig(t)
		var d *beldi.Deployment
		raced := false
		r.store = hooked(r.store, func(op storage.Op) {
			if op.Kind == dynamo.OpDelete && op.Table == "fn.intent" && !raced {
				raced = true
				pass(t, d) // the claim the cancel's read did not see
			}
		})
		d = r.deploy(t)
		da := d.DurableAsync()
		if err := da.ScheduleInvoke("c", "fn", beldi.Null, 10*time.Millisecond, period); err != nil {
			t.Fatal(err)
		}
		r.clk.Advance(10 * time.Millisecond)
		if err := da.CancelInvoke("c", "fn"); err != nil {
			t.Fatal(err)
		}
		if !raced {
			t.Fatal("the cancel deleted nothing: the race was not staged")
		}
		r.clk.Advance(time.Second)
		pass(t, d)
		if ran := r.runs(); len(ran) != 1 {
			t.Errorf("period %v: ran %d times, want the 1 occurrence the racing claim launched", period, len(ran))
		}
		if n := r.pending(t); n != 0 {
			t.Errorf("period %v: %d intents pending after the cancel, want none", period, n)
		}
	}
}

// TestTimerRacingFirersFireExactlyOnce runs two deployments' collectors over
// one store at once, at every due time of a periodic schedule: each
// occurrence's fire is one transaction guarded on the registration's
// LastLaunch, so each runs exactly once.
func TestTimerRacingFirersFireExactlyOnce(t *testing.T) {
	r := newTimerRig(t)
	ds := []*beldi.Deployment{r.deploy(t), r.deploy(t)}
	if err := ds[0].DurableAsync().ScheduleInvoke("contested", "fn", beldi.Str("x"), time.Millisecond, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const occurrences = 5
	for range occurrences {
		r.clk.Advance(time.Millisecond)
		var wg sync.WaitGroup
		for _, d := range ds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := d.RunAllCollectors(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	ran := r.runs()
	ids := map[string]bool{}
	for _, run := range ran {
		ids[run.id] = true
	}
	if len(ran) != occurrences || len(ids) != occurrences {
		t.Fatalf("racing collectors ran %d executions of %d occurrences, want %d of %d", len(ran), len(ids), occurrences, occurrences)
	}
}

// TestTimerPendingOccurrenceState: a registration not due yet is a pending
// intent with a future LastLaunch and no log rows. Fsck accepts it, the
// durable spans show it as scheduled, Drain is not held by it, and a Seal of
// its function's table is refused while it is pending, since the runs it
// fires may write the table.
func TestTimerPendingOccurrenceState(t *testing.T) {
	r := newTimerRig(t)
	d := r.deploy(t)
	da := d.DurableAsync()
	if err := da.ScheduleInvoke("hourly", "fn", beldi.Str("x"), 0, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := da.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain = %v, want it to return once the due occurrence ran", err)
	}
	if ran := r.runs(); len(ran) != 1 {
		t.Fatalf("Drain ran %d occurrences, want the 1 that was due", len(ran))
	}
	if n := r.pending(t); n != 1 {
		t.Fatalf("%d intents pending, want the registration", n)
	}
	if err := d.FsckAll(); err != nil {
		t.Fatal(err)
	}
	spans, err := core.DurableSpans(r.store)
	if err != nil {
		t.Fatal(err)
	}
	var errs []string
	for _, sp := range spans {
		if sp.Fn == "fn" && sp.Kind == telemetry.KindExec {
			errs = append(errs, sp.Err)
		}
	}
	slices.Sort(errs)
	if len(errs) != 2 || errs[0] != "" || errs[1] != "scheduled" {
		t.Errorf("fn's exec spans end in %q, want the run's and the registration's: [\"\" \"scheduled\"]", errs)
	}
	if err := d.Seal("fn", "state"); !errors.Is(err, beldi.ErrSealPending) {
		t.Errorf("Seal with a timer scheduled = %v, want ErrSealPending", err)
	}
}

// hookStore calls before ahead of every data-plane call it forwards.
type hookStore struct {
	storage.Doer
	storage.Calls
	before func(storage.Op)
}

func hooked(b storage.Backend, before func(storage.Op)) storage.Backend {
	h := &hookStore{Doer: storage.DoerOf(b), before: before}
	h.Calls = storage.Calls{Doer: h}
	return h
}

func (h *hookStore) Do(op storage.Op) (storage.Result, error) {
	h.before(op)
	return h.Doer.Do(op)
}
