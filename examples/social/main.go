// Social: the social media workflow under steady load, with live garbage
// collection — the full Figure 1 architecture in one process.
//
// The example drives the DeathStarBench-style social network (compose
// posts, read timelines) at a constant request rate with Beldi's intent and
// garbage collectors running on their timers, then prints the latency
// distribution and the storage the GC reclaimed.
//
//	go run ./examples/social
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/beldi"
	"repro/internal/apps/social"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/workload"
)

func main() {
	store := dynamo.NewStore(dynamo.WithLatency(dynamo.NewCloudLatency(0.05, 1)))
	plat := platform.New(platform.Options{ConcurrencyLimit: 10000})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat,
		Config: beldi.Config{
			RowCap: 16,
			T:      500 * time.Millisecond,
		},
	})
	app := social.Build(d)
	if err := app.Seed(); err != nil {
		log.Fatal(err)
	}
	d.StartCollectors()
	defer d.Stop()

	fmt.Println("driving the social network at 120 req/s for 4s (55% home timeline,")
	fmt.Println("25% user timeline, 10% compose, 10% login), collectors live ...")
	res := workload.Run(workload.Options{
		Rate:     120,
		Duration: 4 * time.Second,
		Warmup:   500 * time.Millisecond,
	}, func(r *rand.Rand) error {
		_, err := d.Invoke(app.Entry(), app.Request(r))
		return err
	})

	fmt.Printf("\ncompleted %d requests (%.0f req/s), %d errors\n",
		res.Completed, res.Throughput(), res.Errors)
	fmt.Printf("latency: p50=%s p99=%s max=%s\n",
		res.Latency.Median().Round(100*time.Microsecond),
		res.Latency.P99().Round(100*time.Microsecond),
		res.Latency.Max().Round(100*time.Microsecond))
	fmt.Println("\nlatency distribution:")
	fmt.Print(res.Latency.Ascii(48))

	// Let the finished intents age past T, then drive two deterministic
	// collection passes (stamp, then reclaim).
	for i := 0; i < 3; i++ {
		time.Sleep(600 * time.Millisecond)
		if err := d.RunAllCollectors(); err != nil {
			log.Fatal(err)
		}
	}
	var intents, logs int
	for _, name := range store.TableNames() {
		n, err := store.TableItemCount(name)
		if err != nil {
			continue
		}
		switch {
		case hasSuffix(name, ".intent"):
			intents += n
		case hasSuffix(name, ".readlog"), hasSuffix(name, ".invokelog"):
			logs += n
		}
	}
	fmt.Printf("\nafter GC: %d pending/uncollected intents, %d log rows remain\n", intents, logs)
	fmt.Println("(every completed request's logs are reclaimed once T elapses)")
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
