package beldi_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

// TestStartCollectorsFinishesACrashedWorkflow: under a Config that sets only
// T, StartCollectors alone finishes a workflow killed after its body ran —
// no interval to set, no RunAllCollectors to call.
func TestStartCollectorsFinishesACrashedWorkflow(t *testing.T) {
	const T = 20 * time.Millisecond
	store := storagetest.Open(t)
	plat := platform.New(platform.Options{IDs: &uuid.Seq{Prefix: "req"}})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat, Config: beldi.Config{T: T}})
	d.Function("counter", counter, "state")
	crash := &platform.CrashOnce{Function: "counter", Label: "body:done"}
	plat.SetFaults(crash)
	if _, err := d.Invoke("counter", beldi.Null); err == nil || !crash.Fired() {
		t.Fatalf("crash at body:done did not fire (err %v)", err)
	}
	d.StartCollectors()
	defer plat.Drain()
	defer d.Stop()
	for deadline := time.Now().Add(100 * T); ; {
		n, err := core.PendingIntents(store, "counter")
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d intent(s) still pending after 100 T", n)
		}
		time.Sleep(T / 4)
	}
	if v, err := beldi.PeekState(d.Runtime("counter"), "state", "hits"); err != nil || v.Int() != 1 {
		t.Errorf("hits = %v %v, want 1", v, err)
	}
}

// passGate wraps a store: it counts data calls and, while held, parks each
// one until release closes — a way to catch the collection loop mid-pass.
type passGate struct {
	storage.Doer
	storage.Calls
	ops     atomic.Int64
	held    atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newPassGate(b storage.Backend) *passGate {
	// parked holds one send per parked call: one loop parks one, a
	// duplicate loop a second.
	g := &passGate{Doer: storage.DoerOf(b), parked: make(chan struct{}, 2), release: make(chan struct{})}
	g.Calls = storage.Calls{Doer: g}
	return g
}

func (g *passGate) Do(op storage.Op) (storage.Result, error) {
	g.ops.Add(1)
	if g.held.Load() {
		g.parked <- struct{}{}
		<-g.release
	}
	return g.Doer.Do(op)
}

// TestStopWaitsForTheCollectionPass: Stop returns only once the pass in
// flight has ended, no store op follows it, and a second StartCollectors or
// Stop changes nothing.
func TestStopWaitsForTheCollectionPass(t *testing.T) {
	const T = 5 * time.Millisecond
	gate := newPassGate(storagetest.Open(t))
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    gate,
		Platform: platform.New(platform.Options{IDs: &uuid.Seq{Prefix: "req"}}),
		Config:   beldi.Config{T: T},
	})
	d.Function("counter", counter, "state")
	gate.held.Store(true)
	d.StartCollectors()
	d.StartCollectors()
	select {
	case <-gate.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the collection loop issued no store op")
	}
	select {
	case <-gate.parked:
		t.Fatal("a second StartCollectors started a second loop")
	case <-time.After(10 * T):
	}

	stopped := make(chan struct{})
	go func() {
		d.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a pass was in flight")
	case <-time.After(10 * T):
	}
	gate.held.Store(false)
	close(gate.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never returned after the pass ended")
	}

	after := gate.ops.Load()
	d.Stop()
	d.StartCollectors()
	time.Sleep(10 * T)
	if n := gate.ops.Load() - after; n != 0 {
		t.Errorf("%d store op(s) after Stop returned", n)
	}
}
