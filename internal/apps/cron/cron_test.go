package cron

import (
	"fmt"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/platform"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

// rig is one deployment with durable async enabled: timers whose
// occurrences register intents. ICMinAge is short so a crashed run is
// relaunched within a few drive rounds.
type rig struct {
	d    *beldi.Deployment
	da   *beldi.DurableAsync
	plat *platform.Platform
}

func newRig(t *testing.T, faults platform.FaultPlan) *rig {
	t.Helper()
	store := storagetest.Open(t)
	plat := platform.New(platform.Options{
		ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}, Faults: faults,
	})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat,
		Config: beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Millisecond},
	})
	Register(d)
	da := d.EnableDurableAsync(beldi.DurableAsyncOptions{
		MaxReceives: -1, // sweeps relaunch many times; never mark an intent dead
	})
	return &rig{d: d, da: da, plat: plat}
}

// drive advances the whole machine one round: fire due timers, wait for
// the runs they launched, restart crashed intents.
func (r *rig) drive(t *testing.T) {
	t.Helper()
	if _, err := r.da.Timers().FireDue(); err != nil {
		t.Fatal(err)
	}
	r.plat.Drain()
	if err := r.d.RunAllCollectors(); err != nil {
		t.Fatal(err)
	}
}

// converge drives until ingest and index both report want occurrences, then
// verifies the counts are stable under further driving (no late duplicate).
func (r *rig) converge(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond) // exceed ICMinAge
		r.drive(t)
		total, err := Total(r.d)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := Indexed(r.d)
		if err != nil {
			t.Fatal(err)
		}
		if total == want && indexed == want {
			break
		}
		if total > want || indexed > want {
			t.Fatalf("overshoot: total=%d indexed=%d, want %d — a duplicate slipped through", total, indexed, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: total=%d indexed=%d, want %d", total, indexed, want)
		}
	}
	// Stability: more fires, runs and collection must change nothing.
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		r.drive(t)
	}
	if total, _ := Total(r.d); total != want {
		t.Fatalf("total drifted to %d after extra driving, want %d", total, want)
	}
	if indexed, _ := Indexed(r.d); indexed != want {
		t.Fatalf("indexed drifted to %d after extra driving, want %d", indexed, want)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Error(err)
	}
}

func TestCronOneShotExactlyOnce(t *testing.T) {
	r := newRig(t, nil)
	if err := r.da.ScheduleInvoke("tick", FnIngest, beldi.Str("payload"), 0, 0); err != nil {
		t.Fatal(err)
	}
	r.converge(t, 1)
}

func TestCronPeriodicOccurrences(t *testing.T) {
	r := newRig(t, nil)
	// Period 1ms on the real clock: converge waits 2ms between rounds, so
	// occurrences accrue as the drive loop runs; stop the timer once three
	// distinct occurrences have been ingested, then assert stability.
	if err := r.da.ScheduleInvoke("tick", FnIngest, beldi.Str("payload"), 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		r.drive(t)
		total, err := Total(r.d)
		if err != nil {
			t.Fatal(err)
		}
		if total >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("periodic timer produced only %d occurrences", total)
		}
	}
	if err := r.da.Timers().Cancel("tick"); err != nil {
		t.Fatal(err)
	}
	// Every occurrence indexed exactly once: drive until index catches up.
	deadline = time.Now().Add(10 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		r.drive(t)
		total, _ := Total(r.d)
		indexed, err := Indexed(r.d)
		if err != nil {
			t.Fatal(err)
		}
		if indexed == total {
			break
		}
		if indexed > total {
			t.Fatalf("indexed %d > ingested %d: CDC duplicated an event", indexed, total)
		}
		if time.Now().After(deadline) {
			t.Fatalf("index never caught up: indexed=%d total=%d", indexed, total)
		}
	}
	if err := r.d.FsckAll(); err != nil {
		t.Error(err)
	}
}

// TestCronFirerRestartDoesNotDuplicate simulates the pump dying and a fresh
// one taking over mid-stream: FireDue from a second service over the same
// table must not re-fire an occurrence the first already committed (the
// fire transaction is the only commit point — there is no half-fired state
// to recover).
func TestCronFirerRestartDoesNotDuplicate(t *testing.T) {
	r := newRig(t, nil)
	if err := r.da.ScheduleInvoke("tick", FnIngest, beldi.Str("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := r.da.Timers().FireDue(); err != nil || n != 1 {
		t.Fatalf("first firer: (%d, %v), want (1, nil)", n, err)
	}
	// "Restart": a second FireDue pass (same durable state, fresh pass)
	// must find nothing to do.
	if n, err := r.da.Timers().FireDue(); err != nil || n != 0 {
		t.Fatalf("restarted firer: (%d, %v), want (0, nil)", n, err)
	}
	r.converge(t, 1)
}

// TestCronCrashSweepExactlyOnce is the kill-mid-fire sweep: for every
// operation boundary of the ingest SSF and of the CDC handler, a worker is
// killed there mid-run; the collectors restart it,
// and the final counts must equal the crash-free run — one ingested
// occurrence, one indexed change — on whatever backend the matrix selects
// (BELDI_BACKEND=wal runs this against the durable walstore).
func TestCronCrashSweepExactlyOnce(t *testing.T) {
	// Discovery: count each function's crash points in a clean run.
	counter := &platform.OpCounter{}
	probe := newRig(t, counter)
	if err := probe.da.ScheduleInvoke("tick", FnIngest, beldi.Str("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	probe.converge(t, 1)

	for _, fn := range []string{FnIngest, FnIndex} {
		max := counter.Max(fn)
		if max == 0 {
			t.Fatalf("%s hit no crash points; sweep is vacuous", fn)
		}
		for n := 1; n <= max; n++ {
			t.Run(fmt.Sprintf("%s@op%d", fn, n), func(t *testing.T) {
				plan := &platform.CrashNthOp{Function: fn, N: n}
				r := newRig(t, plan)
				if err := r.da.ScheduleInvoke("tick", FnIngest, beldi.Str("x"), 0, 0); err != nil {
					t.Fatal(err)
				}
				r.converge(t, 1)
				if !plan.Fired() {
					t.Fatal("plan never fired; sweep position unreachable")
				}
			})
		}
	}
}
