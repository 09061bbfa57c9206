package beldi_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/storage/storagetest"
)

// registerCounter registers the shared test SSF: each request increments its
// own key — a non-idempotent effect whose final value exposes any lost or
// duplicated execution.
func registerCounter(d *beldi.Deployment) {
	d.Function("counter", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		key := in.Map()["key"].Str()
		v, err := e.Read("state", key)
		if err != nil {
			return beldi.Null, err
		}
		next := beldi.Int(v.Int() + 1)
		if err := e.Write("state", key, next); err != nil {
			return beldi.Null, err
		}
		return next, nil
	}, "state")
}

func TestClusterWorkersShareState(t *testing.T) {
	store := storagetest.Open(t)
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store: store, Partitions: 8,
		Config: beldi.Config{T: 50 * time.Millisecond},
	})
	w1, err := c.JoinCluster("w1", registerCounter)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.JoinCluster("w2", registerCounter)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Stop()
	defer w2.Stop()

	// The same key, incremented once through each worker: both see one
	// shared state, not two private ones.
	req := beldi.Map(map[string]beldi.Value{"key": beldi.Str("shared")})
	if _, err := w1.Invoke("counter", req); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Invoke("counter", req); err != nil {
		t.Fatal(err)
	}
	v, err := beldi.PeekState(w1.Deployment().Runtime("counter"), "state", "shared")
	if err != nil || v.Int() != 2 {
		t.Fatalf("shared counter = %v (%v), want 2", v, err)
	}

	// Ownership is split, not duplicated.
	if _, _, err := w1.Worker().RebalanceOnce(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w2.Worker().RebalanceOnce(); err != nil {
		t.Fatal(err)
	}
	n1, n2 := len(w1.Worker().OwnedPartitions()), len(w2.Worker().OwnedPartitions())
	if n1+n2 != 8 || n1 == 0 || n2 == 0 {
		t.Fatalf("partition split %d/%d, want all 8 split across both", n1, n2)
	}
	if err := w1.Deployment().FsckAll(); err != nil {
		t.Error(err)
	}
}

// TestClusterKillRecoversExactlyOnce is the end-to-end acceptance scenario:
// background loops running, a worker killed mid-load, survivors detect the
// death, steal its partitions, and finish every workflow it left behind,
// clients retry the ones it left nothing of — with every counter landing
// on exactly 1.
//
// Until the kill, every workflow entering at the doomed worker dies just
// after its first effect wrote its intent row (and so does each of that
// worker's own relaunches), so the worker leaves workflows stranded past
// their first effect, which only the survivors' collection can finish. The
// kill then takes down the calls it still runs; those die before their first
// effect and leave nothing.
func TestClusterKillRecoversExactlyOnce(t *testing.T) {
	store := storagetest.Open(t)
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store:      store,
		Partitions: 8,
		LeaseTTL:   80 * time.Millisecond,
		Config:     beldi.Config{T: 30 * time.Millisecond},
	})
	register := registerCounter
	var workers []*beldi.ClusterWorker
	for i := 0; i < 3; i++ {
		w, err := c.JoinCluster(fmt.Sprintf("w%d", i), register)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Stop()
		}
	}()
	// Settle partition ownership across the pool before driving load, so
	// the kill takes real work ownership down with it.
	for round := 0; round < 4; round++ {
		for _, w := range workers {
			if _, _, err := w.Worker().RebalanceOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, w := range workers {
		if len(w.Worker().OwnedPartitions()) == 0 {
			t.Fatalf("worker %d owns nothing after settling", i)
		}
		w.Start()
	}

	workers[1].Platform().SetFaults(crashAt("intent:logged"))
	const requests = 30
	var wg, stranded sync.WaitGroup
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		if i%3 == 1 && i < requests/2 {
			stranded.Add(1)
		}
		go func(i int) {
			defer wg.Done()
			if i%3 == 1 && i < requests/2 {
				defer stranded.Done()
			}
			_, errs[i] = workers[i%3].Invoke("counter", keyed(fmt.Sprintf("k%03d", i)))
		}(i)
		if i == requests/2 {
			stranded.Wait()
			workers[1].Kill() // mid-load: the rest of its traffic dies with it
		}
	}
	wg.Wait()

	// Client-side errors are allowed (the killed worker's callers see the
	// crash); lost or duplicated effects are not. A workflow whose entry wrote
	// its intent converges to exactly 1 via the survivors' stolen collection.
	// One killed before its first effect left nothing for a collector, so
	// once nothing is pending its client retries it, and it lands once.
	probe := workers[0].Deployment().Runtime("counter")
	value := func(i int) int64 {
		v, err := beldi.PeekState(probe, "state", fmt.Sprintf("k%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		return v.Int()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		pending, err := probe.DueIntents()
		if err != nil {
			t.Fatal(err)
		}
		steals := workers[0].Worker().Stats().Steals.Load() + workers[2].Worker().Stats().Steals.Load()
		settled := pending == 0 && steals > 0
		for i := 0; i < requests && settled; i++ {
			settled = errs[i] != nil || value(i) == 1
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < requests; i++ {
				if v := value(i); v != 1 {
					t.Errorf("key k%03d = %d (invoke err: %v)", i, v, errs[i])
				}
			}
			t.Fatalf("recovery did not converge to exactly-once: %d intents pending, %d partitions stolen", pending, steals)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Every counter call writes, so each call that succeeded wrote one intent
	// row, and every other row is a failed call's whose workflow was
	// stranded past its first effect: each of those the collection finished.
	var started int64
	for _, w := range workers {
		started += w.Deployment().Runtime("counter").StatsSnapshot().IntentsStarted
	}
	crashed, collected := 0, 0
	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			crashed++
			if value(i) == 1 {
				collected++
			}
		}
	}
	if want := int(started) - (requests - crashed); collected != want {
		t.Errorf("collection finished %d failed calls, but %d left an intent row", collected, want)
	}
	if collected == 0 {
		t.Error("no failed call was finished by collection: the kill stranded no workflow past its first effect")
	}
	retried := 0
	for i := 0; i < requests; i++ {
		if errs[i] != nil && value(i) == 0 {
			var failed *beldi.CallError
			if !errors.As(errs[i], &failed) {
				t.Fatalf("k%03d failed with %v, not a *CallError", i, errs[i])
			}
			if _, err := workers[0].Deployment().Retry(context.Background(), failed); err != nil {
				t.Fatalf("retry of k%03d: %v", i, err)
			}
			retried++
		}
	}
	for i := 0; i < requests; i++ {
		if v := value(i); v != 1 {
			t.Errorf("key k%03d = %d (invoke err: %v), want exactly 1", i, v, errs[i])
		}
	}

	// The death was detected and work moved.
	steals := workers[0].Worker().Stats().Steals.Load() + workers[2].Worker().Stats().Steals.Load()
	if steals == 0 {
		t.Error("no partitions were stolen from the killed worker")
	}
	t.Logf("kill test: %d/%d client calls failed at the killed worker (%d finished by collection, %d left nothing and were retried), %d partitions stolen",
		crashed, requests, collected, retried, steals)
	if err := workers[0].Deployment().FsckAll(); err != nil {
		t.Errorf("fsck after recovery: %v", err)
	}
}

func TestOpenClusterValidation(t *testing.T) {
	if _, err := beldi.OpenCluster(beldi.ClusterOptions{}); err == nil {
		t.Fatal("OpenCluster without a store accepted")
	}
	store := storagetest.Open(t)
	c := beldi.MustOpenCluster(beldi.ClusterOptions{Store: store, Partitions: 4})
	w, err := c.JoinCluster("", registerCounter) // auto-generated id
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if w.Worker().ID() == "" {
		t.Error("empty auto-generated worker id")
	}
	if _, err := w.Invoke("nope", beldi.Null); !errors.Is(err, beldi.ErrUnknownFunction) {
		t.Errorf("unknown function: %v", err)
	}
}

// The tests below pin how a started cluster worker drives durable async:
// exactly as a standalone deployment does, since its collection is its
// deployment's loop.

// crashAt is a fault plan that kills every instance reaching its label.
type crashAt string

func (l crashAt) ShouldCrash(_, label string, _ int) bool { return label == string(l) }

// keyed is counter's request for key.
func keyed(key string) beldi.Value {
	return beldi.Map(map[string]beldi.Value{"key": beldi.Str(key)})
}

// counterAt reads counter's state for key through cw.
func counterAt(t *testing.T, cw *beldi.ClusterWorker, key string) int64 {
	t.Helper()
	v, err := beldi.PeekState(cw.Deployment().Runtime("counter"), "state", key)
	if err != nil {
		t.Fatal(err)
	}
	return v.Int()
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not within 5s: %s", what)
		}
	}
}

// TestClusterWorkerFiresScheduledTimer: a started worker fires a timer at
// its due time on the worker's clock, as a deployment does — the schedule
// arms its deployment's collection loop for the due time — and runs the
// timer's workflow once. The lease and both collection periods are an
// hour, so no loop's own period brings the timer in.
func TestClusterWorkerFiresScheduledTimer(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000, 0))
	store := storagetest.Open(t)
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store: store, Partitions: 8,
		Config:       beldi.Config{T: time.Hour, ICMinAge: time.Hour},
		LeaseTTL:     time.Hour,
		DurableAsync: &beldi.DurableAsyncOptions{},
	})
	w, err := c.JoinClusterWith("w1", registerCounter, beldi.WorkerOptions{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	parked := func(n int) {
		t.Helper()
		waitUntil(t, fmt.Sprintf("%d waits on the worker's clock", n), func() bool { return clk.Waiters() >= n })
	}
	w.Start()
	parked(2) // the collection loop's hour and the lease loop's tick
	if err := w.Deployment().DurableAsync().ScheduleInvoke("once", "counter", keyed("tick"), 5*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	parked(3) // the nudged pass armed a wait for the due time
	if n := counterAt(t, w, "tick"); n != 0 {
		t.Fatalf("the timer's workflow ran %d times before its due time", n)
	}
	clk.Advance(5 * time.Second)
	waitUntil(t, "the timer's workflow ran and finished", func() bool {
		n, err := core.PendingIntents(store, "counter")
		return err == nil && n == 0 && counterAt(t, w, "tick") >= 1
	})
	clk.Advance(time.Hour) // every loop's period: room for a second run to show
	parked(2)
	w.Platform().Drain()
	if n := counterAt(t, w, "tick"); n != 1 {
		t.Errorf("the timer's workflow ran %d times, want 1", n)
	}
}

// TestClusterWorkerCatchesUpAPeriodicTimer: one scoped collection pass of a
// worker fires every occurrence of a periodic timer that is due, each once,
// so a timer whose period is shorter than the collection period (ICMinAge)
// does not fall behind.
func TestClusterWorkerCatchesUpAPeriodicTimer(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000, 0))
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store: storagetest.Open(t), Partitions: 8,
		Config:       beldi.Config{T: time.Hour, ICMinAge: time.Hour},
		DurableAsync: &beldi.DurableAsyncOptions{},
	})
	var runs atomic.Int64
	w, err := c.JoinClusterWith("w1", func(d *beldi.Deployment) {
		d.Function("tick", func(*beldi.Env, beldi.Value) (beldi.Value, error) {
			runs.Add(1)
			return beldi.Null, nil
		})
	}, beldi.WorkerOptions{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if _, _, err := w.Worker().RebalanceOnce(); err != nil {
		t.Fatal(err)
	}
	if err := w.Deployment().DurableAsync().ScheduleInvoke("fast", "tick", beldi.Null, 10*time.Millisecond, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond) // dues at 10, 20, …, 50 ms have passed
	for range 2 {                      // the second pass comes before the next due time
		if err := w.Deployment().RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
		w.Platform().Drain()
	}
	if n := runs.Load(); n != 5 {
		t.Errorf("the worker's passes ran %d occurrences, want the 5 that were due", n)
	}
}

// TestClusterWorkerIdleScans: durable async costs an idle started worker
// nothing of its own — no store op on a table, or of a kind, that the same
// worker without it does not make, and no goroutine. T is 40 ms and a
// worker's GC period is at least 4·LeaseTTL, 160 ms, so the window spans
// about a dozen intent-collection passes and three GC passes.
func TestClusterWorkerIdleScans(t *testing.T) {
	const window = 500 * time.Millisecond
	idle := func(da *beldi.DurableAsyncOptions) (ops map[string]bool, goroutines int) {
		counted := storagetest.NewCounting(storagetest.Open(t))
		c := beldi.MustOpenCluster(beldi.ClusterOptions{
			Store: counted, Partitions: 8, LeaseTTL: 40 * time.Millisecond, DurableAsync: da,
			Config: beldi.Config{T: 40 * time.Millisecond},
		})
		w, err := c.JoinCluster("w1", func(d *beldi.Deployment) {
			for _, fn := range []string{"a", "b", "c"} {
				d.Function(fn, func(*beldi.Env, beldi.Value) (beldi.Value, error) { return beldi.Null, nil })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		before, g0 := counted.Counts(), runtimeGoroutines()
		w.Start()
		time.Sleep(window) // several collection and GC periods (T)
		goroutines = runtimeGoroutines() - g0
		w.Stop()
		ops = make(map[string]bool)
		for k, n := range counted.Counts() {
			if n > before[k] {
				ops[k] = true
			}
		}
		return ops, goroutines
	}
	without, gWithout := idle(nil)
	with, gWith := idle(&beldi.DurableAsyncOptions{})
	for k := range with {
		if !without[k] {
			t.Errorf("%s: an idle worker with durable async makes this op, one without does not", k)
		}
	}
	if gWith != gWithout {
		t.Errorf("an idle started worker runs %d goroutines with durable async, %d without", gWith, gWithout)
	}
	t.Logf("idle worker: %d op kinds, %d goroutines", len(with), gWith)
}

// TestClusterWorkerRunsTwoLoops: a started worker runs two goroutines of
// the runtime's own — its lease loop and its deployment's collection loop —
// a second Start adds none, Stop ends both, and a Start after Stop starts
// both again.
func TestClusterWorkerRunsTwoLoops(t *testing.T) {
	c := beldi.MustOpenCluster(beldi.ClusterOptions{Store: storagetest.Open(t), Partitions: 4})
	w, err := c.JoinCluster("w1", registerCounter)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	g0 := runtimeGoroutines()
	for range 2 {
		w.Start()
		w.Start()
		waitUntil(t, "the worker runs two goroutines", func() bool { return runtimeGoroutines()-g0 == 2 })
		w.Stop()
		waitUntil(t, "Stop ends both", func() bool { return runtimeGoroutines() == g0 })
	}
}

// TestFencedClusterWorkerRunsNoPass: while a worker is fenced its
// collection loop runs no pass — it owns nothing to collect, and its GC
// would race the thief's recovery — and once it has rejoined the loop runs
// them again. The worker's lease loop is stopped, so the test decides when
// the worker is fenced and when it rejoins.
func TestFencedClusterWorkerRunsNoPass(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000, 0))
	counted := storagetest.NewCounting(storagetest.Open(t))
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store: counted, Partitions: 4, LeaseTTL: time.Minute,
		Config: beldi.Config{T: time.Hour},
	})
	var pool []*beldi.ClusterWorker
	for _, id := range []string{"w1", "w2"} {
		w, err := c.JoinClusterWith(id, registerCounter, beldi.WorkerOptions{Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, w)
	}
	w1, w2 := pool[0], pool[1]
	defer w1.Stop()
	w1.Start()
	w1.Worker().Stop()
	clk.Advance(2 * time.Minute) // w1's lease runs out
	if err := w2.Worker().HeartbeatOnce(); err != nil {
		t.Fatal(err)
	}
	if dead, _, err := w2.Worker().DetectOnce(); err != nil || len(dead) != 1 {
		t.Fatalf("w2 marked %v dead (%v), want w1", dead, err)
	}
	if err := w1.Worker().HeartbeatOnce(); err == nil || !w1.Worker().Fenced() {
		t.Fatalf("w1 is not fenced after the verdict (heartbeat: %v)", err)
	}
	gcRuns := func() int64 { return w1.Deployment().Runtime("counter").StatsSnapshot().GCRuns }
	before, gc0 := counted.Counts(), gcRuns()
	clk.Advance(time.Hour) // both of the loop's periods
	waitUntil(t, "the loop armed its next wait", func() bool { return clk.Waiters() == 1 })
	if after := counted.Counts(); fmt.Sprint(after) != fmt.Sprint(before) || gcRuns() != gc0 {
		t.Errorf("a fenced worker's loop ran a pass: %d GC passes, store ops %v, were %v", gcRuns()-gc0, after, before)
	}
	if err := w1.Worker().Rejoin(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	waitUntil(t, "the rejoined worker's loop ran a GC pass", func() bool { return gcRuns() == gc0+1 })
}

// runtimeGoroutines counts the goroutines running code of the runtime's own
// packages — a worker's loops, a deployment's, a timer pump's — and not the
// storage backend's, whose connection goroutines come and go with requests.
func runtimeGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, pkg := range []string{"repro/beldi.", "repro/internal/cluster.", "repro/internal/queue.", "repro/internal/core."} {
			if strings.Contains(g, pkg) {
				n++
				break
			}
		}
	}
	return n
}
