// Event-driven workflows: an order pipeline composed entirely of
// asynchronous invocations instead of direct calls.
//
// Each asynchronous edge registers the consumer's intent, then fires the
// consumer in-process. A consumer killed mid-handler leaves its intent
// pending, and the intent collector relaunches it once it is ICMinAge old;
// the re-execution replays to exactly-once completion. A consumer that
// crash-loops burns its launch budget and its intent is marked dead — then
// redriven once the "bug" is fixed.
//
//	go run ./examples/orders
package main

import (
	"fmt"
	"log"
	"time"

	"repro/beldi"
	"repro/internal/apps/orders"
	"repro/internal/dynamo"
	"repro/internal/platform"
)

func main() {
	store := dynamo.NewStore()
	plat := platform.New(platform.Options{})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat,
		Config: beldi.Config{ICMinAge: 10 * time.Millisecond}})
	app := orders.Build(d)
	da := app.EnableEvents(orders.DefaultEventOptions())
	defer d.Stop()
	if err := app.Seed(); err != nil {
		log.Fatal(err)
	}

	// Kill the payment consumer once, mid-handler, right after it has
	// durably accrued the charge — the worst possible moment.
	fault := &platform.CrashOnce{Function: orders.FnPayment, Label: "write:post:0.000002"}
	plat.SetFaults(fault)

	fmt.Println("placing 5 orders (payment consumer will crash once mid-handler) ...")
	var ids []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("order-%d", i)
		_, err := d.Invoke(orders.FnFrontend, orders.PlaceRequest(
			id, orders.UserID(i), orders.ItemID(i), 1, 100))
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}

	relaunched, err := da.Drain(10 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash injected: %v; intents relaunched by the collector: %d\n", fault.Fired(), relaunched)

	tot, err := app.Totals(ids)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("totals: revenue=%d (want 500)  shipments=%d  notifications=%d — exactly once\n",
		tot.Revenue, tot.Shipments, tot.Notifications)

	// Poison: a notification consumer that crash-loops until "fixed".
	fmt.Println("\nplacing a poisoned order (notify consumer crash-loops) ...")
	app.ArmPoison(true)
	poisoned := "order-poison"
	if _, err := d.Invoke(orders.FnFrontend, orders.PlaceRequest(
		poisoned, orders.PoisonUser, orders.ItemID(0), 1, 7)); err != nil {
		log.Fatal(err)
	}
	if _, err := da.Drain(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	dead, err := da.DeadIntents(orders.FnNotify)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dead intents: %d after %d launches each\n", len(dead), beldi.DefaultMaxReceives)

	fmt.Println("fixing the consumer and redriving the dead intent ...")
	app.ArmPoison(false)
	if _, err := da.Redrive(orders.FnNotify); err != nil {
		log.Fatal(err)
	}
	if _, err := da.Drain(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	note, _ := beldi.PeekState(d.Runtime(orders.FnNotify), "inbox", "note."+poisoned)
	fmt.Printf("poisoned order notified exactly %d time(s)\n", note.Int())

	if err := d.FsckAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfsck: all protocol invariants hold")
}
