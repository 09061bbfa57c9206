package beldi_test

import (
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// Data sovereignty (§2.2): SSFs developed independently keep their state in
// their own databases; composition happens only through invocation. These
// tests deploy each SSF onto its OWN store — the strict federation the
// paper's architecture targets — and verify the workflow still composes.

func TestPerFunctionStoresCompose(t *testing.T) {
	plat := platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}})
	cfg := beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Millisecond}

	// Two organizations: "orders" and "payments", fully separate databases.
	ordersStore := dynamo.NewStore()
	paymentsStore := dynamo.NewStore()
	orders := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: ordersStore, Platform: plat, Config: cfg,
	})
	payments := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: paymentsStore, Platform: plat, Config: cfg,
	})

	payments.Function("charge", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		total, err := e.Read("ledger", "total")
		if err != nil {
			return beldi.Null, err
		}
		next := beldi.Int(total.Int() + in.Int())
		if err := e.Write("ledger", "total", next); err != nil {
			return beldi.Null, err
		}
		return next, nil
	}, "ledger")

	orders.Function("order", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		charged, err := e.SyncInvoke("charge", beldi.Int(42))
		if err != nil {
			return beldi.Null, err
		}
		return charged, e.Write("book", "last", charged)
	}, "book")

	out, err := orders.Invoke("order", beldi.Null)
	if err != nil || out.Int() != 42 {
		t.Fatalf("order: %v %v", out, err)
	}

	// Sovereignty: the orders database holds no payments tables and vice
	// versa — state crossed only through the invocation result.
	for _, name := range ordersStore.TableNames() {
		if has := len(name) >= 6 && name[:6] == "charge"; has {
			t.Errorf("payments table %q leaked into the orders store", name)
		}
	}
	for _, name := range paymentsStore.TableNames() {
		if has := len(name) >= 5 && name[:5] == "order"; has {
			t.Errorf("orders table %q leaked into the payments store", name)
		}
	}

	// Each side audits cleanly in isolation.
	if err := orders.FsckAll(); err != nil {
		t.Errorf("orders fsck: %v", err)
	}
	if err := payments.FsckAll(); err != nil {
		t.Errorf("payments fsck: %v", err)
	}
	v, _ := beldi.PeekState(payments.Runtime("charge"), "ledger", "total")
	if v.Int() != 42 {
		t.Errorf("ledger = %v", v)
	}
}

func TestPerFunctionCollectorsRunIndependently(t *testing.T) {
	// Each organization's collectors see only its own intents: recovery of
	// one side never touches (or needs) the other side's database.
	plat := platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}})
	cfg := beldi.Config{T: 10 * time.Millisecond, ICMinAge: time.Millisecond}
	aStore, bStore := dynamo.NewStore(), dynamo.NewStore()
	a := beldi.NewDeployment(beldi.DeploymentOptions{Store: aStore, Platform: plat, Config: cfg})
	b := beldi.NewDeployment(beldi.DeploymentOptions{Store: bStore, Platform: plat, Config: cfg})
	fail := true
	a.Function("flakyA", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		// The write, its first effect, writes the intent the failure leaves.
		if err := e.Write("t", "k", beldi.Int(1)); err != nil {
			return beldi.Null, err
		}
		if fail {
			fail = false
			return beldi.Null, platformErr()
		}
		return beldi.Str("ok"), nil
	}, "t")
	b.Function("steadyB", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return beldi.Str("ok"), e.Write("t", "k", beldi.Int(2))
	}, "t")

	a.Invoke("flakyA", beldi.Null) //nolint:errcheck // first attempt fails
	if out, err := b.Invoke("steadyB", beldi.Null); err != nil || out.Str() != "ok" {
		t.Fatalf("b: %v %v", out, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		if err := a.RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
		if v, _ := beldi.PeekState(a.Runtime("flakyA"), "t", "k"); v.Int() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a never recovered")
		}
	}
	// b's database was never involved in a's recovery.
	if v, _ := beldi.PeekState(b.Runtime("steadyB"), "t", "k"); v.Int() != 2 {
		t.Errorf("b state disturbed: %v", v)
	}
}

func platformErr() error { return errTransient }

var errTransient = &transientErr{}

type transientErr struct{}

func (*transientErr) Error() string { return "transient failure" }
