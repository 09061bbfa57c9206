package beldi_test

import (
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
// death, steal its partitions, and finish every workflow it left behind —
// with every counter landing on exactly 1.
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

	const requests = 30
	var wg sync.WaitGroup
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := workers[i%3]
			req := beldi.Map(map[string]beldi.Value{"key": beldi.Str(fmt.Sprintf("k%03d", i))})
			_, errs[i] = w.Invoke("counter", req)
		}(i)
		if i == requests/2 {
			workers[1].Kill() // mid-load: a third of the traffic dies with it
		}
	}
	wg.Wait()

	// Client-side errors are allowed (the killed worker's callers see the
	// crash); lost or duplicated effects are not. Every key must converge
	// to exactly 1 via the survivors' stolen collection.
	probe := workers[0].Deployment().Runtime("counter")
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for i := 0; i < requests; i++ {
			key := fmt.Sprintf("k%03d", i)
			v, err := beldi.PeekState(probe, "state", key)
			if err != nil {
				t.Fatal(err)
			}
			if v.Int() != 1 {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < requests; i++ {
				key := fmt.Sprintf("k%03d", i)
				v, _ := beldi.PeekState(probe, "state", key)
				if v.Int() != 1 {
					t.Errorf("key %s = %d (invoke err: %v)", key, v.Int(), errs[i])
				}
			}
			t.Fatal("recovery did not converge to exactly-once")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The death was detected and work moved.
	steals := workers[0].Worker().Stats().Steals.Load() + workers[2].Worker().Stats().Steals.Load()
	if steals == 0 {
		t.Error("no partitions were stolen from the killed worker")
	}
	crashed := 0
	for _, err := range errs {
		if err != nil {
			crashed++
		}
	}
	t.Logf("kill test: %d/%d client calls failed at the killed worker, %d partitions stolen",
		crashed, requests, steals)
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
// exactly as a standalone deployment does, with the timer pump.

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

// TestClusterWorkerFiresScheduledTimer: a started worker's scoped intent
// collection launches a timer when it comes due, so a one-shot timer
// scheduled on a cluster worker runs its workflow, and runs it once.
func TestClusterWorkerFiresScheduledTimer(t *testing.T) {
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store: storagetest.Open(t), Partitions: 8,
		Config:       beldi.Config{T: 50 * time.Millisecond},
		LeaseTTL:     200 * time.Millisecond,
		DurableAsync: &beldi.DurableAsyncOptions{},
	})
	w, err := c.JoinCluster("w1", registerCounter)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	w.Start()
	da := w.Deployment().DurableAsync()
	if err := da.ScheduleInvoke("once", "counter", keyed("tick"), 5*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the timer's workflow ran", func() bool { return counterAt(t, w, "tick") >= 1 })
	time.Sleep(250 * time.Millisecond) // a collection period: room for a second run to show
	if n := counterAt(t, w, "tick"); n != 1 {
		t.Errorf("the timer's workflow ran %d times, want 1", n)
	}
}

// TestClusterWorkerCatchesUpAPeriodicTimer: one scoped collection pass of a
// worker fires every occurrence of a periodic timer that is due, each once,
// so a timer whose period is shorter than the worker's collection period
// (LeaseTTL) does not fall behind.
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
		if _, err := w.Worker().CollectOnce(); err != nil {
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
// worker without it does not make, and no goroutine.
func TestClusterWorkerIdleScans(t *testing.T) {
	const window = 300 * time.Millisecond
	idle := func(da *beldi.DurableAsyncOptions) (ops map[string]bool, goroutines int) {
		counted := storagetest.NewCounting(storagetest.Open(t))
		c := beldi.MustOpenCluster(beldi.ClusterOptions{
			Store: counted, Partitions: 8, LeaseTTL: 40 * time.Millisecond, DurableAsync: da,
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
		time.Sleep(window) // several collection (40 ms) and GC (160 ms) periods
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
