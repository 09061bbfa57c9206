package cron

import (
	"fmt"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

// rig is one deployment with durable async enabled: timers that are
// scheduled intents, which the intent collector launches when they come
// due. ICMinAge is short so a crashed run is relaunched within a few drive
// rounds.
type rig struct {
	store   storage.Backend
	d       *beldi.Deployment
	da      *beldi.DurableAsync
	plat    *platform.Platform
	crashes bool // a fault plan is installed, which may kill runs
}

func newRig(t *testing.T, faults platform.FaultPlan) *rig {
	t.Helper()
	return newRigOn(t, storagetest.Open(t), platform.Options{Faults: faults})
}

// newRigOn deploys the app over store, as a restarted deployment would, on
// a platform with popts' faults and async dispatch.
func newRigOn(t *testing.T, store storage.Backend, popts platform.Options) *rig {
	t.Helper()
	faults := popts.Faults
	popts.ConcurrencyLimit, popts.IDs = 10000, &uuid.Seq{Prefix: "req"}
	plat := platform.New(popts)
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat,
		Config: beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Millisecond},
	})
	Register(d)
	da := d.EnableDurableAsync(beldi.DurableAsyncOptions{
		MaxReceives: -1, // sweeps relaunch many times; never mark an intent dead
	})
	return &rig{store: store, d: d, da: da, plat: plat, crashes: faults != nil}
}

// drive advances the whole machine one round: a collection pass launches
// the timers that are due and restarts crashed intents, then the round
// waits for the runs it launched.
func (r *rig) drive(t *testing.T) {
	t.Helper()
	if err := r.d.RunAllCollectors(); err != nil {
		t.Fatal(err)
	}
	r.plat.Drain()
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
	newRig(t, nil).periodic(t)
}

// periodic schedules a periodic timer and asserts that its occurrences are
// each ingested and indexed exactly once: period 1ms on the real clock,
// while converge-style rounds 2ms apart accrue occurrences; once three
// distinct occurrences have been ingested it cancels the timer, drives
// until index catches up, and checks that nothing of the schedule is left
// pending and that the durable state is clean.
func (r *rig) periodic(t *testing.T) {
	t.Helper()
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
	if err := r.da.CancelInvoke("tick", FnIngest); err != nil {
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
		pending, err := core.PendingIntents(r.store, FnIngest)
		if err != nil {
			t.Fatal(err)
		}
		if indexed == total && pending == 0 {
			break
		}
		// Crash-free, index never runs ahead; a run killed between its
		// event's write and its total's leaves it ahead until its relaunch.
		if indexed > total && !r.crashes {
			t.Fatalf("indexed %d > ingested %d: CDC duplicated an event", indexed, total)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never settled: indexed=%d total=%d, %d ingest intents pending", indexed, total, pending)
		}
	}
	total, _ := Total(r.d)
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		r.drive(t)
	}
	if after, _ := Total(r.d); after != total {
		t.Fatalf("total drifted from %d to %d after the cancel", total, after)
	}
	if indexed, _ := Indexed(r.d); indexed != total {
		t.Fatalf("indexed drifted to %d after the cancel, want %d", indexed, total)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Error(err)
	}
}

// TestCronFirerRestartDoesNotDuplicate simulates the deployment dying right
// after a pass launched an occurrence and a fresh one taking over: the
// fresh deployment's collection pass over the same store must not launch
// the occurrence again (the claim that launched it is the only commit point
// — there is no half-fired state to recover).
func TestCronFirerRestartDoesNotDuplicate(t *testing.T) {
	r := newRig(t, nil)
	if err := r.da.ScheduleInvoke("tick", FnIngest, beldi.Str("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	r.drive(t)
	if total, err := Total(r.d); err != nil || total != 1 {
		t.Fatalf("first deployment ingested (%d, %v), want (1, nil)", total, err)
	}
	// "Restart": a second deployment's pass (same durable state, fresh
	// runtimes) must find nothing to launch.
	restarted := newRigOn(t, r.store, platform.Options{})
	restarted.drive(t)
	if total, err := Total(restarted.d); err != nil || total != 1 {
		t.Fatalf("restarted deployment ingested (%d, %v), want (1, nil)", total, err)
	}
	restarted.converge(t, 1)
}

// TestCronCrashSweepExactlyOnce is the kill-mid-fire sweep: for every
// operation boundary of the ingest SSF and of the CDC handler, a worker is
// killed there mid-run; the collectors restart it,
// and the final counts must equal the crash-free run — one ingested
// occurrence, one indexed change — on whatever backend the matrix selects
// (BELDI_BACKEND=wal runs this against the durable walstore). The periodic
// variant kills the first occurrence of a periodic timer the same way, so
// its relaunch races the occurrences after it, and asserts what periodic
// does: every occurrence ingested and indexed once, nothing left pending
// after the cancel, a clean fsck.
func TestCronCrashSweepExactlyOnce(t *testing.T) {
	// Discovery: count each function's crash points in a clean run.
	counter := &platform.OpCounter{}
	probe := newRig(t, counter)
	if err := probe.da.ScheduleInvoke("tick", FnIngest, beldi.Str("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	probe.converge(t, 1)

	for _, variant := range []string{"", "periodic/"} {
		for _, fn := range []string{FnIngest, FnIndex} {
			max := counter.Max(fn)
			if max == 0 {
				t.Fatalf("%s hit no crash points; sweep is vacuous", fn)
			}
			for n := 1; n <= max; n++ {
				t.Run(fmt.Sprintf("%s%s@op%d", variant, fn, n), func(t *testing.T) {
					plan := &platform.CrashNthOp{Function: fn, N: n}
					if variant == "" {
						r := newRig(t, plan)
						if err := r.da.ScheduleInvoke("tick", FnIngest, beldi.Str("x"), 0, 0); err != nil {
							t.Fatal(err)
						}
						r.converge(t, 1)
					} else {
						newRig(t, plan).periodic(t)
					}
					if !plan.Fired() {
						t.Fatal("plan never fired; sweep position unreachable")
					}
				})
			}
		}
	}
}
