// Command beldi-demo runs one of the case-study workflows interactively,
// with optional fault injection — a workbench for watching Beldi's recovery
// machinery operate.
//
// Usage:
//
//	beldi-demo -app travel -requests 40                  # drive the app
//	beldi-demo -app media -crash media-frontend -at 5    # kill an instance at its 5th op
//	beldi-demo -app social -mode baseline -requests 40   # no guarantees
//
// With -crash, the named function's first instance dies at its -at'th
// operation boundary; the demo then drives the intent collectors until the
// workflow completes and reports what happened.
//
// With -worker, the process instead becomes one compute-plane member of a
// multi-process pool: it dials a beldi-storaged server (-store), joins the
// named cluster with the shared counter demo app, and serves until
// signaled (or killed — recovery of whatever it was running is the
// surviving pool's job):
//
//	beldi-demo -worker -store 127.0.0.1:7440 -id w1
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/beldi"
	"repro/internal/apps/counterdemo"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/remote"
)

func main() {
	var (
		app      = flag.String("app", "travel", "application: media, travel, social")
		modeName = flag.String("mode", "beldi", "mode: beldi, crosstable, baseline")
		requests = flag.Int("requests", 20, "number of requests to drive")
		crashFn  = flag.String("crash", "", "function to kill once (platform fault injection)")
		crashAt  = flag.Int("at", 3, "operation index to kill at")
		seed     = flag.Int64("seed", 1, "workload seed")

		worker      = flag.Bool("worker", false, "run as a cluster worker against a remote store instead of driving an app")
		storeAddr   = flag.String("store", "127.0.0.1:7440", "beldi-storaged address (with -worker)")
		clusterName = flag.String("cluster", "main", "cluster pool name (with -worker)")
		workerID    = flag.String("id", "", "worker id; empty auto-generates (with -worker)")
		leaseTTL    = flag.Duration("lease", time.Second, "worker lease TTL (with -worker)")
	)
	flag.Parse()

	if *worker {
		if err := runWorker(*storeAddr, *clusterName, *workerID, *leaseTTL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var mode beldi.Mode
	switch *modeName {
	case "beldi":
		mode = beldi.ModeBeldi
	case "crosstable":
		mode = beldi.ModeCrossTable
	case "baseline":
		mode = beldi.ModeBaseline
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeName)
		os.Exit(2)
	}

	sys := bench.NewSystem(bench.SystemOptions{
		Mode: mode, Scale: 0.05, Seed: *seed, Concurrency: 10000,
		Config: beldi.Config{T: 300 * time.Millisecond, ICMinAge: 10 * time.Millisecond},
	})
	workApp, err := bench.BuildApp(sys, *app)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Arm the fault plan only after seeding so the kill lands on workload
	// traffic.
	var plan *platform.CrashNthOp
	if *crashFn != "" {
		plan = &platform.CrashNthOp{Function: *crashFn, N: *crashAt}
		sys.Plat.SetFaults(plan)
	}

	fmt.Printf("driving %d %s requests in %s mode...\n", *requests, *app, mode)
	rng := rand.New(rand.NewSource(*seed))
	var ok, failed int
	start := time.Now()
	for i := 0; i < *requests; i++ {
		if _, err := sys.D.Invoke(workApp.Entry(), workApp.Request(rng)); err != nil {
			failed++
			fmt.Printf("  request %d failed: %v\n", i, err)
		} else {
			ok++
		}
	}
	fmt.Printf("%d ok, %d failed in %s\n", ok, failed, time.Since(start).Round(time.Millisecond))

	if plan != nil {
		if !plan.Fired() {
			fmt.Printf("note: %s never reached op %d; no crash was injected\n", *crashFn, *crashAt)
		} else if mode == beldi.ModeBaseline {
			fmt.Println("crash injected; baseline has no recovery — state may be corrupt")
		} else {
			fmt.Println("crash injected; driving intent collectors to recover ...")
			deadline := time.Now().Add(10 * time.Second)
			for {
				time.Sleep(50 * time.Millisecond)
				if err := sys.D.RunAllCollectors(); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				pending, err := pendingIntents(sys)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("  pending intents: %d\n", pending)
				if pending == 0 {
					fmt.Println("recovered: every intent completed exactly once")
					break
				}
				if time.Now().After(deadline) {
					fmt.Println("gave up waiting for recovery")
					os.Exit(1)
				}
			}
		}
	}

	m := sys.Plat.Metrics()
	fmt.Printf("\nplatform: %d invocations, %d crashes, %d timeouts, peak concurrency %d\n",
		m.Invocations.Load(), m.Crashes.Load(), m.Timeouts.Load(), m.ConcurrencyHighWater.Load())
	s := sys.Store.Metrics().Snapshot()
	fmt.Printf("store: %d ops (%d conditional failures), %.1f KB read, %.1f KB written\n",
		s.TotalOps(), s.CondFailures, float64(s.BytesRead)/1024, float64(s.BytesWritten)/1024)
}

// runWorker is the -worker mode: one compute-plane process of a
// multi-process pool, all coordination through the remote storage plane.
// It joins the cluster, starts the background loops (lease heartbeats,
// failure detection, scoped collection, the timer pump), prints
// "READY <id>" for orchestrating parents, and serves until SIGINT/SIGTERM
// (graceful leave) or SIGKILL (the failure the pool recovers from).
func runWorker(storeAddr, clusterName, id string, leaseTTL time.Duration) error {
	client, err := remote.Dial(storeAddr, remote.Options{})
	if err != nil {
		return fmt.Errorf("beldi-demo: dial storaged: %w", err)
	}
	defer client.Close()
	c, err := beldi.OpenCluster(beldi.ClusterOptions{
		Name:         clusterName,
		Store:        client,
		LeaseTTL:     leaseTTL,
		Config:       beldi.Config{T: 300 * time.Millisecond, ICMinAge: 10 * time.Millisecond},
		DurableAsync: &beldi.DurableAsyncOptions{PollInterval: 20 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	w, err := c.JoinCluster(id, counterdemo.Register)
	if err != nil {
		return fmt.Errorf("beldi-demo: join cluster: %w", err)
	}
	w.Start()
	fmt.Printf("READY %s\n", w.Worker().ID())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	return w.Leave()
}

// pendingIntents counts unfinished intents across the deployment's functions.
func pendingIntents(sys *bench.System) (int, error) {
	total := 0
	for _, fn := range sys.D.Functions() {
		n, err := core.PendingIntents(sys.Store, fn)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
