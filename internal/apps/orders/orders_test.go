package orders

import (
	"fmt"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// rig builds the pipeline on a fresh store/platform with durable async
// edges. Nothing runs in the background: tests settle the pipeline with
// da.Drain unless they start the collection loop.
type rig struct {
	store storage.Backend
	plat  *platform.Platform
	d     *beldi.Deployment
	app   *App
	da    *beldi.DurableAsync
}

func newRig(t *testing.T, opts beldi.DurableAsyncOptions) *rig {
	t.Helper()
	store := storagetest.Open(t)
	plat := platform.New(platform.Options{})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat,
		Config: beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Nanosecond},
	})
	app := Build(d)
	da := d.EnableDurableAsync(opts)
	if err := app.Seed(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return &rig{store: store, plat: plat, d: d, app: app, da: da}
}

// place submits n orders with deterministic amounts/quantities and returns
// the ids plus the expected revenue and units sold.
func (r *rig) place(t *testing.T, n int) (ids []string, revenue, units int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("order-%04d", i)
		qty := int64(1 + i%3)
		amount := int64(10 + i)
		if _, err := r.d.Invoke(FnFrontend, PlaceRequest(id, UserID(i%NumUsers), ItemID(i%NumItems), qty, amount)); err != nil {
			t.Fatalf("place %s: %v", id, err)
		}
		ids = append(ids, id)
		revenue += amount
		units += qty
	}
	return ids, revenue, units
}

func (r *rig) assertTotals(t *testing.T, ids []string, revenue, units int64) {
	t.Helper()
	tot, err := r.app.Totals(ids)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Revenue != revenue {
		t.Errorf("revenue = %d, want %d", tot.Revenue, revenue)
	}
	if tot.StockSold != units {
		t.Errorf("stock sold = %d, want %d", tot.StockSold, units)
	}
	if tot.PaidOrders != len(ids) {
		t.Errorf("paid orders = %d, want %d", tot.PaidOrders, len(ids))
	}
	if tot.Shipments != len(ids) {
		t.Errorf("shipments = %d, want %d", tot.Shipments, len(ids))
	}
	if tot.Notifications != int64(len(ids)) {
		t.Errorf("notifications = %d, want %d", tot.Notifications, len(ids))
	}
	if err := r.d.FsckAll(); err != nil {
		t.Errorf("fsck: %v", err)
	}
}

func TestPipelineCompletesExactlyOnce(t *testing.T) {
	r := newRig(t, DefaultEventOptions())
	ids, revenue, units := r.place(t, 12)
	if _, err := r.da.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.assertTotals(t, ids, revenue, units)

	// Order status is readable through the synchronous entry.
	st, err := r.d.Invoke(FnFrontend, beldi.Map(map[string]beldi.Value{
		"op": beldi.Str("status"), "order": beldi.Str(ids[0]),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := st.MapGet("status"); got.Str() != "placed" {
		t.Fatalf("status = %v", st)
	}
}

// TestCrashedConsumerIsRedeliveredExactlyOnce is the acceptance scenario: a
// CrashOnce fault kills the payment consumer mid-handler — after it has
// already accrued revenue — so its intent stays pending, the intent
// collector relaunches it, and the re-execution replays to completion
// without double-charging.
func TestCrashedConsumerIsRedeliveredExactlyOnce(t *testing.T) {
	r := newRig(t, DefaultEventOptions())
	// payment's step 2 is the charge write; crashing right after it is the
	// worst spot — the non-idempotent effect is already durable when the
	// consumer dies.
	fault := &platform.CrashOnce{Function: FnPayment, Label: "write:post:0.000002"}
	r.plat.SetFaults(fault)

	ids, revenue, units := r.place(t, 5)
	if _, err := r.da.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fault.Fired() {
		t.Fatal("fault never fired; the scenario did not run")
	}
	if r.d.Runtime(FnPayment).StatsSnapshot().Restarts == 0 {
		t.Fatal("no relaunch observed: the crashed consumer's intent should have come back")
	}
	r.assertTotals(t, ids, revenue, units)
}

// TestCrashSweepAcrossPaymentSteps kills the payment consumer at every
// operation boundary in turn (the paper's step-level fault coverage) and
// checks the pipeline converges to the same exactly-once totals every time.
func TestCrashSweepAcrossPaymentSteps(t *testing.T) {
	counter := &platform.OpCounter{}
	probe := newRig(t, DefaultEventOptions())
	probe.plat.SetFaults(counter)
	ids, revenue, units := probe.place(t, 1)
	if _, err := probe.da.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	probe.assertTotals(t, ids, revenue, units)
	n := counter.Max(FnPayment)
	if n == 0 {
		t.Fatal("probe run saw no payment crash points")
	}
	for op := 1; op <= n; op++ {
		t.Run(fmt.Sprintf("op%02d", op), func(t *testing.T) {
			r := newRig(t, DefaultEventOptions())
			r.plat.SetFaults(&platform.CrashNthOp{Function: FnPayment, N: op})
			id := "order-0000"
			if _, err := r.d.Invoke(FnFrontend, PlaceRequest(id, UserID(0), ItemID(0), 1, 10)); err != nil {
				// The crash landed before the entry returned (e.g. inside
				// the synchronous async-registration call): the client saw
				// an error and the pending intents are the durable record.
				// Recovery belongs to the intent collectors.
				for i := 0; i < 3; i++ {
					if err := r.d.RunAllCollectors(); err != nil {
						t.Fatal(err)
					}
					r.plat.Drain()
				}
			}
			if _, err := r.da.Drain(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			r.assertTotals(t, []string{id}, 10, 1)
		})
	}
}

// TestPoisonIntentGoesDeadThenRedrives drives an order whose notification
// crash-loops while collector passes keep running: the notify intent is
// launched exactly MaxReceives times — its in-process fire and then the
// collector's relaunches — and then marked dead, after which no pass
// relaunches it, while the rest of the pipeline completes. Once the consumer
// is fixed, Redrive delivers the notification exactly once.
func TestPoisonIntentGoesDeadThenRedrives(t *testing.T) {
	opts := DefaultEventOptions()
	opts.MaxReceives = 3
	r := newRig(t, opts)
	r.app.ArmPoison(true)
	launches := func() int64 { return r.plat.Metrics().Crashes.Load() } // each poisoned launch dies

	id := "order-poison"
	if _, err := r.d.Invoke(FnFrontend, PlaceRequest(id, PoisonUser, ItemID(0), 2, 42)); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 10; pass++ {
		r.plat.Drain()
		if err := r.d.RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
	}
	r.plat.Drain()
	if n := launches(); n != int64(opts.MaxReceives) {
		t.Fatalf("the poisoned notification ran %d times under 10 collector passes, want the budget %d", n, opts.MaxReceives)
	}
	if st := r.d.Runtime(FnNotify).StatsSnapshot(); st.Restarts != int64(opts.MaxReceives-1) || st.IntentsDead != 1 {
		t.Fatalf("notify relaunched %d times and marked %d intents dead, want %d and 1", st.Restarts, st.IntentsDead, opts.MaxReceives-1)
	}
	dead, err := r.da.DeadIntents(FnNotify)
	if err != nil || len(dead) != 1 {
		t.Fatalf("DeadIntents = %v, %v; want one", dead, err)
	}

	// Payment, inventory and shipping completed; only the notification is
	// poisoned.
	tot, err := r.app.Totals([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	if tot.Revenue != 42 || tot.StockSold != 2 || tot.PaidOrders != 1 || tot.Shipments != 1 {
		t.Fatalf("upstream pipeline disturbed by poison: %+v", tot)
	}
	note, err := beldi.PeekState(r.d.Runtime(FnNotify), "inbox", "note."+id)
	if err != nil {
		t.Fatal(err)
	}
	if note.Int() != 0 {
		t.Fatalf("poisoned notification partially applied: %v", note)
	}

	// Fix the consumer and redrive: the same intent now completes, exactly
	// once.
	r.app.ArmPoison(false)
	n, err := r.da.Redrive(FnNotify)
	if err != nil || n != 1 {
		t.Fatalf("Redrive = %d, %v", n, err)
	}
	if _, err := r.da.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	note, err = beldi.PeekState(r.d.Runtime(FnNotify), "inbox", "note."+id)
	if err != nil {
		t.Fatal(err)
	}
	if note.Int() != 1 {
		t.Fatalf("note count after redrive = %d, want exactly 1", note.Int())
	}
	if dead, _ := r.da.DeadIntents(FnNotify); len(dead) != 0 {
		t.Fatalf("dead intents after redrive: %v", dead)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineUnderChaosWithCollectionLoop runs the full rig the way a
// deployment would — the deployment's background collection loop — while a
// probabilistic fault plan keeps killing inventory consumers. Relaunch plus
// replay must still converge to exact totals. The launch budget is off so
// no amount of bad luck can strand an intent.
func TestPipelineUnderChaosWithCollectionLoop(t *testing.T) {
	opts := DefaultEventOptions()
	opts.MaxReceives = -1
	r := newRig(t, opts)
	r.plat.SetFaults(&platform.CrashProb{Function: FnInventory, P: 0.1, Seed: 11})
	r.d.StartCollectors()

	ids, revenue, units := r.place(t, 30)
	deadline := time.Now().Add(15 * time.Second)
	for {
		tot, err := r.app.Totals(ids)
		if err != nil {
			t.Fatal(err)
		}
		if tot.Revenue == revenue && tot.StockSold == units &&
			tot.Shipments == len(ids) && tot.Notifications == int64(len(ids)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not converge: totals=%+v want revenue=%d units=%d n=%d",
				tot, revenue, units, len(ids))
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.d.Stop()
	r.plat.Drain()
	r.plat.SetFaults(nil)
	r.assertTotals(t, ids, revenue, units)
}
