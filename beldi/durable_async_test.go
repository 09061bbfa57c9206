package beldi_test

import (
	"strings"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// These tests cover the durable AsyncInvoke path end to end: the
// intent-table registration of §4.5, the in-process fire, and the intent
// collector relaunching a fire that was lost, with Beldi's instance-id dedup
// turning at-least-once launches into exactly-once execution.

type durableRig struct {
	store storage.Backend
	plat  *platform.Platform
	d     *beldi.Deployment
	da    *beldi.DurableAsync
}

// newDurableRig builds the rig; dispatch, when non-nil, is the platform's
// AsyncDispatch.
func newDurableRig(t *testing.T, parentBody, childBody beldi.Body, dispatch func(func())) *durableRig {
	t.Helper()
	store := storagetest.Open(t)
	plat := platform.New(platform.Options{AsyncDispatch: dispatch})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat,
		Config: beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Nanosecond},
	})
	d.Function("parent", parentBody)
	d.Function("child", childBody, "state")
	da := d.EnableDurableAsync(beldi.DurableAsyncOptions{})
	t.Cleanup(d.Stop)
	return &durableRig{store: store, plat: plat, d: d, da: da}
}

func asyncParent(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if err := e.AsyncInvoke("child", in); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("registered"), nil
}

func countingChild(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	// Fires run concurrently, so the shared counter's read-modify-write
	// needs the item lock to count every run.
	if err := e.Lock("state", "count"); err != nil {
		return beldi.Null, err
	}
	n, err := e.Read("state", "count")
	if err != nil {
		return beldi.Null, err
	}
	if err := e.Write("state", "count", beldi.Int(n.Int()+1)); err != nil {
		return beldi.Null, err
	}
	if err := e.Unlock("state", "count"); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("done"), nil
}

func (r *durableRig) count(t *testing.T) int64 {
	t.Helper()
	v, err := beldi.PeekState(r.d.Runtime("child"), "state", "count")
	if err != nil {
		t.Fatal(err)
	}
	return v.Int()
}

// TestDurableAsyncLostFireIsRelaunched holds the in-process fire back: the
// registered intent is the only record of the run, and the intent collector
// launches it. The held fire, run late, finds its intent done and does
// nothing.
func TestDurableAsyncLostFireIsRelaunched(t *testing.T) {
	var held []func()
	r := newDurableRig(t, asyncParent, countingChild, func(run func()) { held = append(held, run) })

	if _, err := r.d.Invoke("parent", beldi.Null); err != nil {
		t.Fatal(err)
	}
	if len(held) != 1 || r.count(t) != 0 {
		t.Fatalf("%d fires held, count %d: want the child's one fire, not run", len(held), r.count(t))
	}
	if n, err := core.PendingIntents(r.store, "child"); err != nil || n != 1 {
		t.Fatalf("child's pending intents = %d (%v), want the registered one", n, err)
	}
	if n, err := r.d.Runtime("child").RunIntentCollector(); err != nil || n != 1 {
		t.Fatalf("the collector relaunched %d (%v), want 1", n, err)
	}
	if len(held) != 2 {
		t.Fatalf("%d fires held, want the relaunch as the second", len(held))
	}
	held[1]() // the relaunch
	if got := r.count(t); got != 1 {
		t.Fatalf("count = %d after the relaunch, want 1", got)
	}
	held[0]() // the lost fire, late
	if got := r.count(t); got != 1 {
		t.Fatalf("count = %d after the late fire, want 1", got)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAsyncDuplicateEnqueueIsDeduped crashes the caller after the
// fire: its re-execution (by the intent collector) cannot tell whether the
// fire made it out, fires again, and the callee's intent dedup absorbs the
// duplicate — at-least-once launches, exactly-once execution.
func TestDurableAsyncDuplicateEnqueueIsDeduped(t *testing.T) {
	r := newDurableRig(t, asyncParent, countingChild, nil)
	r.plat.SetFaults(&platform.CrashOnce{Function: "parent", Label: "ainvoke:post:0.000001"})

	if _, err := r.d.Invoke("parent", beldi.Null); err == nil {
		t.Fatal("expected the injected crash to surface")
	}
	time.Sleep(60 * time.Millisecond) // age past ICMinAge
	if _, err := r.d.Runtime("parent").RunIntentCollector(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.da.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t); got != 1 {
		t.Fatalf("count = %d, want exactly 1 despite duplicate message", got)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAsyncSurvivesCallerCrashBeforeFire crashes the caller between
// intent registration and the fire — the Figure 20 window where the
// in-process handoff never happens. The registered intent is relaunched by
// the collector, and the workflow completes exactly once.
func TestDurableAsyncSurvivesCallerCrashBeforeFire(t *testing.T) {
	r := newDurableRig(t, asyncParent, countingChild, nil)
	r.plat.SetFaults(&platform.CrashOnce{Function: "parent", Label: "ainvoke:mid:0.000001"})

	if _, err := r.d.Invoke("parent", beldi.Null); err == nil {
		t.Fatal("expected the injected crash to surface")
	}
	if r.count(t) != 0 {
		t.Fatal("the child ran although the caller crashed before the fire")
	}
	if _, err := r.da.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// TestDurableAsyncPromiseFanIn runs durable promises under durable async:
// the fan-out's registered intents carry the reply coordinates, their fires
// run the children, and the parent's awaits resolve from the results posted
// into its invoke log — promises and durable async compose.
func TestDurableAsyncPromiseFanIn(t *testing.T) {
	promiseParent := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		ps := make([]*beldi.Promise, 3)
		for i := range ps {
			p, err := e.AsyncInvokePromise("child", beldi.Null)
			if err != nil {
				return beldi.Null, err
			}
			ps[i] = p
		}
		outs, err := e.AwaitAll(ps...)
		if err != nil {
			return beldi.Null, err
		}
		return beldi.Int(int64(len(outs))), nil
	}
	r := newDurableRig(t, promiseParent, countingChild, nil)

	out, err := r.d.Invoke("parent", beldi.Null)
	if err != nil {
		t.Fatal(err)
	}
	if out.Int() != 3 {
		t.Fatalf("fan-in resolved %v promises, want 3", out)
	}
	r.plat.Drain()
	if got := r.count(t); got != 3 {
		t.Fatalf("child ran %d times, want 3", got)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestLeftoverTimerTableIsRefused: timer registrations an earlier version
// kept in its own "queue.timers" table are fired by nothing now, so a store
// that still holds some is refused by name instead of leaving them unfired.
// An empty table of that name is not in the way.
func TestLeftoverTimerTableIsRefused(t *testing.T) {
	store := storagetest.Open(t)
	if err := store.CreateTable(dynamo.Schema{Name: "queue.timers", HashKey: "TimerId", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	deploy := func() (err error) {
		d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: platform.New(platform.Options{})})
		d.Function("child", countingChild, "state")
		defer func() {
			if p := recover(); p != nil {
				err = p.(error)
			}
		}()
		d.EnableDurableAsync(beldi.DurableAsyncOptions{})
		return nil
	}
	if err := deploy(); err != nil {
		t.Fatalf("an empty queue.timers table refused: %v", err)
	}
	legacy := dynamo.Item{"TimerId": dynamo.S("old"), "Target": dynamo.S("child"), "DueAt": dynamo.NInt(0)}
	if err := store.Put("queue.timers", legacy, nil); err != nil {
		t.Fatal(err)
	}
	if err := deploy(); err == nil || !strings.Contains(err.Error(), "queue.timers") {
		t.Fatalf("EnableDurableAsync over a leftover timer = %v, want a refusal naming queue.timers", err)
	}
	c := beldi.MustOpenCluster(beldi.ClusterOptions{Store: store, DurableAsync: &beldi.DurableAsyncOptions{}})
	if _, err := c.JoinCluster("w1", registerCounter); err == nil || !strings.Contains(err.Error(), "queue.timers") {
		t.Fatalf("JoinCluster over a leftover timer = %v, want a refusal naming queue.timers", err)
	}
}

// TestTimerOccurrenceStoreOps pins one timer occurrence's ops on its target's
// tables, in the intent-collection pass that fires it: the pass's query of
// the pending index, which every pass makes whether a timer is due or not;
// the fire, one transaction that claims the schedule's registration (a
// one-shot's delete) and puts the occurrence's intent; and the run, a first
// launch younger than ICMinAge, which reads no row before the body's write
// and the done mark. That write, a fresh step on a
// never-written key, is one head-first update with no query. The pass's
// garbage-collection half, which RunAllCollectors runs next, scans the
// target's tables whether a timer fired or not, so the test runs the
// intent-collection pass alone.
func TestTimerOccurrenceStoreOps(t *testing.T) {
	store := storagetest.NewCounting(dynamo.NewStore())
	plat := platform.New(platform.Options{AsyncDispatch: func(run func()) { run() }})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat, Config: beldi.Config{T: time.Hour}})
	t.Cleanup(d.Stop)
	d.Function("child", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return beldi.Null, e.Write("state", "got", in)
	}, "state")
	da := d.EnableDurableAsync(beldi.DurableAsyncOptions{})
	if err := da.ScheduleInvoke("tick", "child", beldi.Str("tick"), 0, 0); err != nil {
		t.Fatal(err)
	}
	before := store.Counts()
	if _, err := d.Runtime("child").RunIntentCollector(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"child.intent query":      1, // the pass's pending-index query
		"child.intent transact":   1, // the fire: the registration's claim and the occurrence's put
		"child.intent update":     1, // the done mark
		"child.intent get":        0,
		"child.data.state query":  0,
		"child.data.state update": 1,
	}
	after := store.Counts()
	for k := range after {
		if _, ok := want[k]; !ok && (strings.HasPrefix(k, "child.") || strings.HasPrefix(k, "queue.")) {
			want[k] = 0 // an op on the target, or on a queue table, the budget does not know
		}
	}
	for k, n := range want {
		if got := after[k] - before[k]; got != n {
			t.Errorf("%s = %d, want %d", k, got, n)
		}
	}
	if got, err := beldi.PeekState(d.Runtime("child"), "state", "got"); err != nil || got.Str() != "tick" {
		t.Errorf("child ran with %v (%v), want %q", got, err, "tick")
	}
	if err := d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}
