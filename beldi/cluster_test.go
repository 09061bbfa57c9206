package beldi_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/beldi"
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

// TestClusterWorkerFiresScheduledTimer: Start runs the deployment's timer
// pump, so a one-shot timer scheduled on a cluster worker fires, and fires
// once.
func TestClusterWorkerFiresScheduledTimer(t *testing.T) {
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store: storagetest.Open(t), Partitions: 8,
		Config:       beldi.Config{T: 50 * time.Millisecond},
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
	time.Sleep(50 * time.Millisecond) // room for a second fire to show
	if n := counterAt(t, w, "tick"); n != 1 {
		t.Errorf("the timer's workflow ran %d times, want 1", n)
	}
	if fired := da.Timers().Metrics().Fired.Load(); fired != 1 {
		t.Errorf("Fired = %d, want 1", fired)
	}
}

// TestClusterWorkerIdleScans: an idle started worker scans the timer table
// about once per PollInterval, as a standalone deployment does, not every
// few milliseconds.
func TestClusterWorkerIdleScans(t *testing.T) {
	const window = 300 * time.Millisecond
	fns := []string{"a", "b", "c"}
	counted := storagetest.NewCounting(storagetest.Open(t))
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store: counted, Partitions: 8,
		DurableAsync: &beldi.DurableAsyncOptions{PollInterval: time.Second},
	})
	w, err := c.JoinCluster("w1", func(d *beldi.Deployment) {
		for _, fn := range fns {
			d.Function(fn, func(*beldi.Env, beldi.Value) (beldi.Value, error) { return beldi.Null, nil })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	scans := func(table string) int { return counted.Count(table, "scan") + counted.Count(table, "query") }
	tables := []string{"queue.timers"}
	before := make(map[string]int)
	for _, table := range tables {
		before[table] = scans(table)
	}
	w.Start()
	time.Sleep(window)
	w.Stop()
	for _, table := range tables {
		if n := scans(table) - before[table]; n > 2 {
			t.Errorf("%s: %d scans in %v idle, want at most 2 at PollInterval 1s", table, n, window)
		} else {
			t.Logf("%s: %d scans in %v idle", table, n, window)
		}
	}
}
