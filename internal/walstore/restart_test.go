package walstore_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/apps/fanout"
	"repro/internal/apps/orders"
	"repro/internal/apps/travel"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
	"repro/internal/walstore"
)

// These are the true restart-recovery tests the WAL backend exists for:
// each one runs a real application workflow on a walstore, kills an
// instance mid-flight with the fault injector, then DISCARDS every live
// object — store, platform, deployment, runtimes — without closing
// anything (a hard process exit leaves exactly the fsynced bytes). A brand
// new deployment reopens the directory cold, adopts the recovered tables,
// and the intent collectors finish every in-flight workflow exactly once.

// reopen discards nothing explicitly (the abandoned store stays
// unreferenced, as after a crash) and opens the directory cold.
func reopen(t *testing.T, dir string) *walstore.Store {
	t.Helper()
	s, err := walstore.Open(dir, walstore.Options{})
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	return s
}

// fsckDir closes the store and audits its directory.
func fsckDir(t *testing.T, s *walstore.Store, dir string) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := walstore.Fsck(dir); err != nil {
		t.Errorf("fsck: %v", err)
	}
}

func newPlat(faults platform.FaultPlan, prefix string) *platform.Platform {
	return platform.New(platform.Options{
		ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: prefix}, Faults: faults,
	})
}

var restartCfg = beldi.Config{RowCap: 8, T: 50 * time.Millisecond, ICMinAge: time.Millisecond, LockRetryMax: 300}

// TestRestartRecoveryTravel: the reserve transaction is killed mid-flight;
// the reopened deployment's collectors finish it, and both inventories
// show exactly one booking, in lockstep. The seals Seed put on the
// reference tables come back from the directory too: a write to geo is
// refused, and a key geo read once is read from memory after that.
func TestRestartRecoveryTravel(t *testing.T) {
	dir := t.TempDir()
	const capacity = 40

	// Phase 1: seed, then kill the entry SSF mid-workflow. (A crashed
	// callee would be retried synchronously by its live caller — §4.5 —
	// so the way to strand a workflow is to kill the instance the client
	// is talking to, leaving its intent pending with no live caller. The
	// entry writes its intent at its first effect, the call to reserve, so
	// it is killed just after.)
	store1 := reopen(t, dir)
	fault := &platform.CrashOnce{Function: travel.FnFrontend, Label: "intent:logged"}
	plat1 := newPlat(fault, "p1")
	d1 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store1, Platform: plat1, Config: restartCfg})
	app1 := travel.Build(d1)
	app1.Capacity = capacity
	if err := app1.Seed(); err != nil {
		t.Fatal(err)
	}
	req := beldi.Map(map[string]beldi.Value{
		"op": beldi.Str("reserve"), "hotel": beldi.Str("hotel-007"), "flight": beldi.Str("flight-003"),
	})
	if _, err := d1.Invoke(travel.FnFrontend, req); err == nil {
		t.Fatal("reservation survived the injected crash")
	}
	if !fault.Fired() {
		t.Fatal("fault never fired")
	}
	plat1.Drain() // quiesce in-flight instances; then hard-abandon everything

	// Phase 2: cold restart from the directory alone.
	store2 := reopen(t, dir)
	plat2 := newPlat(nil, "p2")
	counted := storagetest.NewCounting(store2)
	d2 := beldi.NewDeployment(beldi.DeploymentOptions{Store: counted, Platform: plat2, Config: restartCfg})
	travel.Build(d2) // no re-seed: the recovered tables are the state

	wantHotels := int64(travel.NumHotels*capacity) - 1
	wantFlights := int64(travel.NumFlights*capacity) - 1
	deadline := time.Now().Add(15 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		if err := d2.RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
		plat2.Drain()
		hot, err := travel.AuditInventory(d2, travel.FnReserveHotel)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := travel.AuditInventory(d2, travel.FnReserveFlight)
		if err != nil {
			t.Fatal(err)
		}
		if hot == wantHotels && fl == wantFlights {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery never converged: hotels=%d (want %d) flights=%d (want %d)", hot, wantHotels, fl, wantFlights)
		}
	}
	// Converged state must be stable across further collection, and clean.
	if err := d2.RunAllCollectors(); err != nil {
		t.Fatal(err)
	}
	plat2.Drain()
	hot, _ := travel.AuditInventory(d2, travel.FnReserveHotel)
	fl, _ := travel.AuditInventory(d2, travel.FnReserveFlight)
	if hot != wantHotels || fl != wantFlights {
		t.Errorf("post-convergence drift: hotels=%d flights=%d", hot, fl)
	}
	if err := d2.FsckAll(); err != nil {
		t.Errorf("beldi fsck: %v", err)
	}

	// The reopened geo table is still sealed: a search's first geo read of
	// a key queries it, the next reads of that key do not, and the seeding
	// workflow's first write is refused.
	geoTable := travel.FnGeo + ".data.geo"
	search := beldi.Fields(beldi.F("op", beldi.Str("search")), beldi.F("lat", beldi.Num(0.4)), beldi.F("lon", beldi.Num(1.7)))
	for i, want := range []int{8, 0} {
		before := counted.Count(geoTable, "query")
		if _, err := d2.Invoke(travel.FnFrontend, search); err != nil {
			t.Fatal(err)
		}
		if got := counted.Count(geoTable, "query") - before; got != want {
			t.Errorf("search %d: %d queries of %s, want %d", i+1, got, geoTable, want)
		}
	}
	if _, err := d2.Invoke(travel.FnGeo, beldi.Fields(beldi.F("op", beldi.Str("seed")))); !errors.Is(err, beldi.ErrTableSealed) {
		t.Errorf("writing geo after the restart: %v, want ErrTableSealed", err)
	}
	fsckDir(t, store2, dir)
}

// TestRestartRecoveryOrders: the payment consumer dies right after its
// non-idempotent charge write; the broker's queue tables — backlog and
// in-flight claims included — come back from the WAL, and redelivery plus
// intent dedup finish the pipeline without double-charging.
func TestRestartRecoveryOrders(t *testing.T) {
	dir := t.TempDir()

	store1 := reopen(t, dir)
	plat1 := newPlat(nil, "p1")
	d1 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store1, Platform: plat1, Config: restartCfg})
	app1 := orders.Build(d1)
	d1.EnableDurableAsync(orders.DefaultEventOptions())
	if err := app1.Seed(); err != nil {
		t.Fatal(err)
	}
	fault := &platform.CrashOnce{Function: orders.FnPayment, Label: "write:post:0.000002"}
	plat1.SetFaults(fault)
	const id = "order-0000"
	if _, err := d1.Invoke(orders.FnFrontend, orders.PlaceRequest(id, orders.UserID(0), orders.ItemID(0), 2, 10)); err != nil {
		t.Fatal(err)
	}
	// The payment consumer's in-process run crashes mid-handler, leaving
	// its intent pending. Then abandon the world.
	plat1.Drain()
	if !fault.Fired() {
		t.Fatal("payment crash never fired")
	}

	store2 := reopen(t, dir)
	plat2 := newPlat(nil, "p2")
	d2 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store2, Platform: plat2, Config: restartCfg})
	app2 := orders.Build(d2)
	da2 := d2.EnableDurableAsync(orders.DefaultEventOptions())

	want := orders.Totals{Revenue: 10, StockSold: 2, PaidOrders: 1, Shipments: 1, Notifications: 1}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := da2.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := d2.RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
		plat2.Drain()
		got, err := app2.Totals([]string{id})
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never converged: %+v, want %+v", got, want)
		}
	}
	if err := d2.FsckAll(); err != nil {
		t.Errorf("beldi fsck: %v", err)
	}
	fsckDir(t, store2, dir)
}

// TestRestartRecoveryFanout: the map-reduce driver is killed mid-fan-in
// (awaiting durable promises); after the cold restart the collector replays
// the driver, whose promises resolve from the recovered posted results or
// re-fired children, and the totals equal an undisturbed run's.
func TestRestartRecoveryFanout(t *testing.T) {
	job := fanout.Job{Docs: []fanout.Doc{
		{ID: "d0", Text: "the quick brown fox"},
		{ID: "d1", Text: "the lazy dog and the quick cat"},
		{ID: "d2", Text: "fox and dog, dog and fox!"},
		{ID: "d3", Text: "quick quick quick"},
	}}

	// The reference run on a throwaway in-memory deployment.
	dClean := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: dynamo.NewStore(), Platform: newPlat(nil, "clean"), Config: restartCfg,
	})
	cleanApp := fanout.Build(dClean)
	if _, err := cleanApp.Reduce.Invoke(job); err != nil {
		t.Fatal(err)
	}
	want, err := fanout.Totals(dClean)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store1 := reopen(t, dir)
	plat1 := newPlat(&platform.CrashNthOp{Function: fanout.FnReduce, N: 14}, "p1")
	d1 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store1, Platform: plat1, Config: restartCfg})
	app1 := fanout.Build(d1)
	if _, err := app1.Reduce.Invoke(job); err == nil {
		t.Fatal("reduce survived the injected crash")
	}
	plat1.Drain()

	store2 := reopen(t, dir)
	plat2 := newPlat(nil, "p2")
	d2 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store2, Platform: plat2, Config: restartCfg})
	fanout.Build(d2)

	deadline := time.Now().Add(15 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		if err := d2.RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
		plat2.Drain()
		got, err := fanout.Totals(d2)
		if err != nil {
			t.Fatal(err)
		}
		if mapsEqual(got, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("totals never converged: got %v want %v", got, want)
		}
	}
	if err := d2.RunAllCollectors(); err != nil {
		t.Fatal(err)
	}
	plat2.Drain()
	got, err := fanout.Totals(d2)
	if err != nil || !mapsEqual(got, want) {
		t.Errorf("post-convergence drift: %v (%v), want %v", got, err, want)
	}
	if err := d2.FsckAll(); err != nil {
		t.Errorf("beldi fsck: %v", err)
	}
	fsckDir(t, store2, dir)
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestRestartAdoptionIsIdempotent: reopening and rebuilding the same
// deployment twice with no work in between must not disturb state (table
// adoption, not re-creation).
func TestRestartAdoptionIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	store1 := reopen(t, dir)
	d1 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store1, Platform: newPlat(nil, "p1"), Config: restartCfg})
	d1.Function("counter", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		v, err := e.Read("state", "n")
		if err != nil {
			return beldi.Null, err
		}
		next := beldi.Int(v.Int() + 1)
		return next, e.Write("state", "n", next)
	}, "state")
	if out, err := d1.Invoke("counter", beldi.Null); err != nil || out.Int() != 1 {
		t.Fatalf("first run: %v %v", out, err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 2; round <= 4; round++ {
		s := reopen(t, dir)
		d := beldi.NewDeployment(beldi.DeploymentOptions{Store: s, Platform: newPlat(nil, fmt.Sprintf("p%d", round)), Config: restartCfg})
		d.Function("counter", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			v, err := e.Read("state", "n")
			if err != nil {
				return beldi.Null, err
			}
			next := beldi.Int(v.Int() + 1)
			return next, e.Write("state", "n", next)
		}, "state")
		out, err := d.Invoke("counter", beldi.Null)
		if err != nil || out.Int() != int64(round) {
			t.Fatalf("round %d: %v %v", round, out, err)
		}
		if err := d.FsckAll(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := walstore.Fsck(dir); err != nil {
		t.Error(err)
	}
}

// TestRestartRejectsMismatchedAdoption: reopening a directory written by
// one runtime mode with a deployment in another must fail loudly at
// registration — the surviving tables have the wrong layout for the new
// mode's protocol — rather than silently running on them.
func TestRestartRejectsMismatchedAdoption(t *testing.T) {
	dir := t.TempDir()
	store1 := reopen(t, dir)
	d1 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store1, Platform: newPlat(nil, "p1"), Config: restartCfg, Mode: beldi.ModeBeldi})
	body := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return beldi.Int(1), e.Write("state", "k", beldi.Int(1))
	}
	d1.Function("fn", body, "state")
	if _, err := d1.Invoke("fn", beldi.Null); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := reopen(t, dir)
	defer store2.Close()
	d2 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store2, Platform: newPlat(nil, "p2"), Config: restartCfg, Mode: beldi.ModeCrossTable})
	defer func() {
		if recover() == nil {
			t.Error("cross-table deployment adopted Beldi-mode DAAL tables without complaint")
		}
	}()
	d2.Function("fn", body, "state")
}

// TestRestartWithPendingIntentOnly: the narrowest slice of the story — a
// crashed two-step workflow whose only trace is the WAL directory must be
// finished exactly once by a collector that never saw the first process.
func TestRestartWithPendingIntentOnly(t *testing.T) {
	dir := t.TempDir()
	store1 := reopen(t, dir)
	plan := &platform.CrashOnce{Function: "front", Label: "body:done"}
	plat1 := newPlat(plan, "p1")
	d1 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store1, Platform: plat1, Config: restartCfg})
	register := func(d *beldi.Deployment) {
		d.Function("charge", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			v, err := e.Read("ledger", "total")
			if err != nil {
				return beldi.Null, err
			}
			next := beldi.Int(v.Int() + in.Int())
			return next, e.Write("ledger", "total", next)
		}, "ledger")
		d.Function("front", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			total, err := e.SyncInvoke("charge", beldi.Int(42))
			if err != nil {
				return beldi.Null, err
			}
			return total, e.Write("orders", "last", total)
		}, "orders")
	}
	register(d1)
	if _, err := d1.Invoke("front", beldi.Null); err == nil {
		t.Fatal("front survived the injected crash")
	} else if !errors.Is(err, platform.ErrCrashed) {
		t.Fatalf("unexpected error: %v", err)
	}
	if !plan.Fired() {
		t.Fatal("fault never fired")
	}
	plat1.Drain()
	// The money moved before the crash; the caller's write did not.
	if v, err := beldi.PeekState(d1.Runtime("charge"), "ledger", "total"); err != nil || v.Int() != 42 {
		t.Fatalf("pre-crash ledger = %v (%v)", v, err)
	}

	store2 := reopen(t, dir)
	plat2 := newPlat(nil, "p2")
	d2 := beldi.NewDeployment(beldi.DeploymentOptions{Store: store2, Platform: plat2, Config: restartCfg})
	register(d2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		if err := d2.RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
		plat2.Drain()
		last, err := beldi.PeekState(d2.Runtime("front"), "orders", "last")
		if err != nil {
			t.Fatal(err)
		}
		if !last.IsNull() {
			if last.Int() != 42 {
				t.Fatalf("last = %v, want 42", last)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("collector never finished the recovered intent")
		}
	}
	if v, _ := beldi.PeekState(d2.Runtime("charge"), "ledger", "total"); v.Int() != 42 {
		t.Errorf("ledger = %v after recovery, want 42 (exactly once)", v)
	}
	if err := d2.FsckAll(); err != nil {
		t.Errorf("beldi fsck: %v", err)
	}
	fsckDir(t, store2, dir)
}
