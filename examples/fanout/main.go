// Fan-out/fan-in: typed API + durable promises surviving a driver crash.
//
// A word-count driver fans one typed mapper invocation per document out
// with Func.Async, then awaits all the promises. The fault injector kills
// the driver mid-fan-in; the intent collector re-executes it, the replayed
// awaits return the identical results the mappers posted into the driver's
// invoke log, and the merged totals commit exactly once. A context
// with a deadline bounds the client's patience without ever weakening the
// guarantee.
//
//	go run ./examples/fanout
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/beldi"
	"repro/internal/apps/fanout"
	"repro/internal/dynamo"
	"repro/internal/platform"
)

func main() {
	store := dynamo.NewStore()
	// Kill the first reduce instance at its 28th operation boundary — a few
	// awaits into the fan-in.
	plan := &platform.CrashNthOp{Function: fanout.FnReduce, N: 28}
	plat := platform.New(platform.Options{Faults: plan})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat,
		Config: beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Millisecond},
	})
	app := fanout.Build(d)

	job := fanout.Job{Docs: []fanout.Doc{
		{ID: "d0", Text: "serverless workflows want fault tolerance"},
		{ID: "d1", Text: "exactly once means exactly once"},
		{ID: "d2", Text: "fan out then fan in"},
		{ID: "d3", Text: "promises survive crashes"},
		{ID: "d4", Text: "the mailbox keeps the first result"},
		{ID: "d5", Text: "replay observes identical results"},
		{ID: "d6", Text: "once registered an intent always finishes"},
		{ID: "d7", Text: "fan out wide and sleep well"},
	}}

	fmt.Println("1. client submits the 8-document job; the driver is killed mid-fan-in ...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := app.Reduce.InvokeCtx(ctx, job); err != nil {
		fmt.Printf("   client saw: %v\n", err)
	}

	fmt.Println("2. the intent collector resumes the driver; awaits replay the posted results ...")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := d.RunAllCollectors(); err != nil {
			log.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		totals, err := fanout.Totals(d)
		if err != nil {
			log.Fatal(err)
		}
		if len(totals) > 0 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("recovery did not complete")
		}
	}

	totals, err := fanout.Totals(d)
	if err != nil {
		log.Fatal(err)
	}
	top, err := fanout.TopWords(d, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3. merged totals committed exactly once:")
	for _, w := range top {
		fmt.Printf("   %-10s %d\n", w, totals[w])
	}
	if totals["once"] == 3 && totals["fan"] == 3 {
		fmt.Println("   exactly-once: every mapper counted one time, no double merge")
	} else {
		fmt.Printf("   UNEXPECTED COUNTS (once=%d fan=%d) — this must never print\n", totals["once"], totals["fan"])
	}
	if err := d.FsckAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("4. fsck: durable state clean (no leaked results, logs, or locks)")
}
