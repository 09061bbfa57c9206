// Package orders is an event-driven order-processing pipeline: the fan-out
// scenario durable asynchrony exists for. Unlike the paper's case studies
// (media, travel, social), which compose SSFs with synchronous calls, every
// edge after the client request here is an asynchronous invocation — a
// registered intent, fired in-process and relaunched by the intent
// collector if the fire is lost — Triggerflow-style composition on Beldi
// semantics.
//
// The workflow (5 SSFs, asynchronous edges marked ⇒):
//
//	client → frontend ⇒ payment ⇒ inventory
//	                            ⇒ shipping ⇒ notify
//
// Every stage's effect is a per-order read-modify-write counter — a
// non-idempotent operation whose final value exposes any duplicated or
// dropped event — and Totals() aggregates them into the app-level
// exactly-once assertion the fault-injection tests check.
//
// Design note: consumers deliberately avoid cross-message locks on hot keys
// (a global revenue counter, a shared stock cell). Under at-least-once
// relaunching, an instance that exhausts its logged lock-retry budget replays
// those failed attempts deterministically forever — the intent turns to
// poison. Keying every effect by order id removes the contention instead;
// aggregates are derived at read time. Beldi's per-instance step replay then
// yields exactly-once with no cross-consumer coordination at all.
package orders

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/beldi"
)

// Function names.
const (
	FnFrontend  = "orders-frontend"
	FnPayment   = "orders-payment"
	FnInventory = "orders-inventory"
	FnShipping  = "orders-shipping"
	FnNotify    = "orders-notify"
)

// Catalogue sizes.
const (
	NumItems = 20
	NumUsers = 50
	// SeedStock is each item's catalogued inventory.
	SeedStock = 1_000_000
)

// PoisonUser marks orders whose notification consumer crash-loops while the
// poison is armed — the poison scenario for launch-budget tests.
const PoisonUser = "user-poison"

// App wires the pipeline.
type App struct {
	d *beldi.Deployment

	// poisonArmed makes notify crash on PoisonUser orders: a consumer-side
	// bug that relaunching alone cannot fix (until "deployed away" by
	// disarming), which is what runs an intent out of its launch budget.
	poisonArmed atomic.Bool
}

// ArmPoison toggles the notify consumer's injected bug.
func (a *App) ArmPoison(on bool) { a.poisonArmed.Store(on) }

// Build registers the five SSFs. Call EnableEvents (or the deployment's own
// EnableDurableAsync) afterwards to bound the async edges' launches.
func Build(d *beldi.Deployment) *App {
	a := &App{d: d}
	d.Function(FnFrontend, a.frontend, "orders")
	d.Function(FnPayment, a.payment, "ledger")
	d.Function(FnInventory, a.inventory, "stock")
	d.Function(FnShipping, a.shipping, "shipments")
	d.Function(FnNotify, a.notify, "inbox")
	return a
}

// EnableEvents enables durable asynchrony under the pipeline's async edges
// and returns the wiring for inspection (dead intents).
func (a *App) EnableEvents(opts beldi.DurableAsyncOptions) *beldi.DurableAsync {
	return a.d.EnableDurableAsync(opts)
}

// Seed catalogues the inventory.
func (a *App) Seed() error {
	if _, err := a.d.Invoke(FnInventory, beldi.Fields(beldi.F("op", beldi.Str("seed")))); err != nil {
		return fmt.Errorf("orders: seeding %s: %w", FnInventory, err)
	}
	return nil
}

// ItemID names a catalogue item.
func ItemID(i int) string { return fmt.Sprintf("item-%03d", i) }

// UserID names a customer.
func UserID(i int) string { return fmt.Sprintf("user-%03d", i) }

// --- SSF bodies -------------------------------------------------------------

// frontend accepts client requests: "place" appends the order record and
// emits the payment event; "status" reads the order record back.
func (a *App) frontend(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch in.Get("op").Str() {
	case "place":
		order := in.Get("order").Str()
		rec := beldi.Fields(
			beldi.F("status", beldi.Str("placed")),
			beldi.F("user", in.Get("user")),
			beldi.F("item", in.Get("item")),
			beldi.F("qty", in.Get("qty")),
			beldi.F("amount", in.Get("amount")),
		)
		if err := e.Write("orders", order, rec); err != nil {
			return beldi.Null, err
		}
		// The durable handoff: the payment intent's registration, then its
		// fire. From here the pipeline advances by events alone.
		if err := e.AsyncInvoke(FnPayment, in); err != nil {
			return beldi.Null, err
		}
		return beldi.Fields(
			beldi.F("order", in.Get("order")),
			beldi.F("status", beldi.Str("placed")),
		), nil
	case "status":
		return e.Read("orders", in.Get("order").Str())
	default:
		return beldi.Null, fmt.Errorf("orders: unknown op %q", in.Get("op").Str())
	}
}

// payment accrues the order's charge — the canonical must-not-double
// read-modify-write; a duplicated event would leave charge = 2×amount — and
// fans out to inventory and shipping.
func (a *App) payment(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	chargeKey := "charge." + in.Get("order").Str()
	cur, err := e.Read("ledger", chargeKey)
	if err != nil {
		return beldi.Null, err
	}
	if err := e.Write("ledger", chargeKey, beldi.Int(cur.Int()+in.Get("amount").Int())); err != nil {
		return beldi.Null, err
	}
	if err := e.AsyncInvoke(FnInventory, in); err != nil {
		return beldi.Null, err
	}
	if err := e.AsyncInvoke(FnShipping, in); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("paid"), nil
}

// inventory validates the item against the catalogue and accrues the order's
// reservation.
func (a *App) inventory(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumItems; i++ {
			if err := e.Write("stock", ItemID(i), beldi.Int(SeedStock)); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	stock, err := e.Read("stock", in.Get("item").Str())
	if err != nil {
		return beldi.Null, err
	}
	if stock.IsNull() {
		return beldi.Null, fmt.Errorf("orders: unknown item %q", in.Get("item").Str())
	}
	resvKey := "resv." + in.Get("order").Str()
	cur, err := e.Read("stock", resvKey)
	if err != nil {
		return beldi.Null, err
	}
	if err := e.Write("stock", resvKey, beldi.Int(cur.Int()+in.Get("qty").Int())); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("reserved"), nil
}

// shipping records the shipment and emits the notification event.
func (a *App) shipping(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	rec := beldi.Fields(
		beldi.F("status", beldi.Str("shipped")),
		beldi.F("item", in.Get("item")),
		beldi.F("qty", in.Get("qty")),
	)
	if err := e.Write("shipments", in.Get("order").Str(), rec); err != nil {
		return beldi.Null, err
	}
	if err := e.AsyncInvoke(FnNotify, in); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("shipped"), nil
}

// notify accrues the order's notification count — one more per-order
// counter, so a duplicated notification event is directly visible.
func (a *App) notify(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("user").Str() == PoisonUser && a.poisonArmed.Load() {
		// A deterministic consumer bug: the worker dies on every delivery of
		// this message until the fix ships (ArmPoison(false)).
		panic("orders: poison notification")
	}
	noteKey := "note." + in.Get("order").Str()
	cur, err := e.Read("inbox", noteKey)
	if err != nil {
		return beldi.Null, err
	}
	if err := e.Write("inbox", noteKey, beldi.Int(cur.Int()+1)); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("notified"), nil
}

// --- test / harness helpers -------------------------------------------------

// Totals is the pipeline's app-level end state, aggregated from the
// per-order counters across every SSF's tables: the exactly-once assertion
// surface. Any duplicated event inflates a sum; any dropped event deflates a
// count.
type Totals struct {
	Revenue       int64 // Σ charge.<order>
	StockSold     int64 // Σ resv.<order>
	PaidOrders    int   // orders with a charge
	Shipments     int   // orders with a shipment record
	Notifications int64 // Σ note.<order>
}

// Totals audits the deployment's state for the given order ids.
func (a *App) Totals(orders []string) (Totals, error) {
	var tot Totals
	for _, o := range orders {
		charge, err := beldi.PeekState(a.d.Runtime(FnPayment), "ledger", "charge."+o)
		if err != nil {
			return tot, err
		}
		tot.Revenue += charge.Int()
		if charge.Int() > 0 {
			tot.PaidOrders++
		}
		resv, err := beldi.PeekState(a.d.Runtime(FnInventory), "stock", "resv."+o)
		if err != nil {
			return tot, err
		}
		tot.StockSold += resv.Int()
		ship, err := beldi.PeekState(a.d.Runtime(FnShipping), "shipments", o)
		if err != nil {
			return tot, err
		}
		if !ship.IsNull() {
			tot.Shipments++
		}
		note, err := beldi.PeekState(a.d.Runtime(FnNotify), "inbox", "note."+o)
		if err != nil {
			return tot, err
		}
		tot.Notifications += note.Int()
	}
	return tot, nil
}

// PlaceRequest builds a "place" payload.
func PlaceRequest(order, user, item string, qty, amount int64) beldi.Value {
	return beldi.Fields(
		beldi.F("op", beldi.Str("place")),
		beldi.F("order", beldi.Str(order)),
		beldi.F("user", beldi.Str(user)),
		beldi.F("item", beldi.Str(item)),
		beldi.F("qty", beldi.Int(qty)),
		beldi.F("amount", beldi.Int(amount)),
	)
}

// --- workload ---------------------------------------------------------------

// Entry returns the workflow's entry function.
func (a *App) Entry() string { return FnFrontend }

// Request draws from the order mix: mostly placements, some status checks.
// Order ids are minted from the workload RNG, which seeds each request
// deterministically.
func (a *App) Request(r *rand.Rand) beldi.Value {
	if r.Float64() < 0.85 {
		return PlaceRequest(
			fmt.Sprintf("o-%016x", r.Int63()),
			UserID(r.Intn(NumUsers)),
			ItemID(r.Intn(NumItems)),
			1+int64(r.Intn(3)),
			10+int64(r.Intn(90)),
		)
	}
	return beldi.Fields(
		beldi.F("op", beldi.Str("status")),
		beldi.F("order", beldi.Str(fmt.Sprintf("o-%016x", r.Int63()))),
	)
}

// DefaultEventOptions are the durable-async parameters harnesses use for
// this app: the default launch budget, stated.
func DefaultEventOptions() beldi.DurableAsyncOptions {
	return beldi.DurableAsyncOptions{MaxReceives: beldi.DefaultMaxReceives}
}
