package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/beldi"
	"repro/internal/dynamo"
)

// ClusterSweep measures the multi-worker runtime: committed workflow steps
// per second as the worker pool grows from one to several workers over one
// shared backend, with and without a worker being killed mid-window. The
// offered load is closed-loop and per-worker, so the no-kill series shows
// how far the pool scales (the Netherite worker-scaling experiment at
// simulation scale), while the kill series shows what a mid-run death costs
// and proves the survivors absorb the dead worker's partitions: the cell
// only ends once every workflow started in the window has committed exactly
// once.

const (
	// clusterDrivers is the closed-loop invoker count per worker: offered
	// load scales with the pool.
	clusterDrivers = 8
	// clusterPartitions is the pool's ownership-partition count.
	clusterPartitions = 16
)

// ClusterSweepOptions configure a cluster sweep.
type ClusterSweepOptions struct {
	// Workers are the pool sizes to sweep. nil means {1, 2, 4}.
	Workers []int
	// Kill adds, for each pool size > 1, a cell where one worker is killed
	// at half the window. nil means {false, true}.
	Kill []bool
	// Duration is the measurement window per cell. 0 means 400ms.
	Duration time.Duration
	// Scale compresses the simulated per-op store latency (1.0 =
	// DynamoDB-like milliseconds). Cloud-shaped latency is what makes the
	// workload latency-bound — the regime where adding workers adds
	// throughput, as in the paper's deployment. 0 means 0.05.
	Scale float64
	Seed  int64
}

func (o ClusterSweepOptions) withDefaults() ClusterSweepOptions {
	if o.Workers == nil {
		o.Workers = []int{1, 2, 4}
	}
	if o.Kill == nil {
		o.Kill = []bool{false, true}
	}
	if o.Duration == 0 {
		o.Duration = 400 * time.Millisecond
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ClusterSweepPoint is one (workers, kill) cell of the sweep.
type ClusterSweepPoint struct {
	Workers int
	Killed  bool
	// Steps is the number of workflow steps committed by client calls in
	// the window; Throughput is Steps per second.
	Steps      int64
	Throughput float64
	// Failed counts client calls that errored (the killed worker's callers
	// see the crash; the pool still finishes the workflows).
	Failed int64
	// Stolen counts partitions survivors took from the killed worker, and
	// Recovered the intents survivors' collectors restarted after the kill
	// fired (dominated by the dead worker's orphaned workflows; a
	// survivor's own transient restart in that window also counts) — both
	// 0 for no-kill cells.
	Stolen    int64
	Recovered int64
	Elapsed   time.Duration
}

// ClusterSweep runs every configured (workers, kill) cell, each against a
// fresh shared store and a fresh pool.
func ClusterSweep(opts ClusterSweepOptions) ([]ClusterSweepPoint, error) {
	opts = opts.withDefaults()
	var out []ClusterSweepPoint
	for _, workers := range opts.Workers {
		for _, kill := range opts.Kill {
			if kill && workers < 2 {
				continue // nothing can recover a one-worker pool's kill
			}
			pt, err := clusterSweepPoint(opts, workers, kill)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// registerStep installs the sweep's SSF: one logged read-modify-write per
// request, keyed so duplicates or losses would corrupt the final audit.
func registerStep(d *beldi.Deployment) {
	d.Function("step", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		key := in.Get("key").Str()
		v, err := e.Read("state", key)
		if err != nil {
			return beldi.Null, err
		}
		if err := e.Write("state", key, beldi.Int(v.Int()+1)); err != nil {
			return beldi.Null, err
		}
		return beldi.Null, nil
	}, "state")
}

// clusterSweepPoint measures one cell.
func clusterSweepPoint(opts ClusterSweepOptions, workers int, kill bool) (ClusterSweepPoint, error) {
	store := dynamo.NewStore(dynamo.WithLatency(dynamo.NewCloudLatency(opts.Scale, opts.Seed)))
	c, err := beldi.OpenCluster(beldi.ClusterOptions{
		Store:      store,
		Partitions: clusterPartitions,
		LeaseTTL:   150 * time.Millisecond,
		Config:     beldi.Config{RowCap: 16, T: 25 * time.Millisecond, TableShards: 8},
	})
	if err != nil {
		return ClusterSweepPoint{}, err
	}
	victim := workers - 1
	killed := false
	var pool []*beldi.ClusterWorker
	// Every return stops the workers still alive, so a failed cell leaks no
	// heartbeat, detector or collector goroutine into the next one.
	defer func() {
		for i, w := range pool {
			if !(killed && i == victim) {
				w.Stop()
			}
		}
	}()
	for i := 0; i < workers; i++ {
		w, err := c.JoinCluster(fmt.Sprintf("w%d", i), registerStep)
		if err != nil {
			return ClusterSweepPoint{}, err
		}
		pool = append(pool, w)
	}
	// Settle ownership before measuring, then run the protocol loops.
	for round := 0; round < workers+1; round++ {
		for _, w := range pool {
			if _, _, err := w.Worker().RebalanceOnce(); err != nil {
				return ClusterSweepPoint{}, err
			}
		}
	}
	for _, w := range pool {
		w.Start()
	}

	var steps, failed atomic.Int64
	var keySeq atomic.Int64
	var restartsAtKill atomic.Int64 // survivors' restart count when the kill fired
	var victimParts []int           // what the victim owned when the kill fired
	start := time.Now()
	deadline := start.Add(opts.Duration)
	killAt := start.Add(opts.Duration / 2)
	var killOnce sync.Once
	var wg sync.WaitGroup
	for wi, w := range pool {
		for dIdx := 0; dIdx < clusterDrivers; dIdx++ {
			wg.Add(1)
			go func(wi int, w *beldi.ClusterWorker) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if kill && time.Now().After(killAt) {
						killOnce.Do(func() {
							victimParts = pool[victim].Worker().OwnedPartitions()
							pool[victim].Kill()
							killed = true
							// Baseline for the Recovered column: restarts
							// after this moment are the kill's recovery work.
							for i, w := range pool {
								if i != victim {
									restartsAtKill.Add(w.Worker().Stats().Restarts.Load())
								}
							}
						})
						if wi == victim {
							return // the dead machine drives nothing
						}
					}
					k := keySeq.Add(1)
					req := beldi.Fields(beldi.F("key", beldi.Str(fmt.Sprintf("k%04d", k%cellKeys))))
					if _, err := w.Invoke("step", req); err != nil {
						failed.Add(1)
						if wi == victim {
							return // its platform is dying; stop offering
						}
						continue
					}
					steps.Add(1)
				}
			}(wi, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	pt := ClusterSweepPoint{
		Workers:    workers,
		Killed:     kill,
		Steps:      steps.Load(),
		Throughput: float64(steps.Load()) / elapsed.Seconds(),
		Failed:     failed.Load(),
		Elapsed:    elapsed,
	}

	if kill {
		// The cell is only done when the survivors have finished every
		// workflow the dead worker left behind — and have taken over its
		// partitions: a victim killed with nothing in flight leaves no
		// pending intent, and the counters read below would otherwise race
		// the lease's expiry.
		probe := pool[0].Deployment().Runtime("step")
		waitUntil := time.Now().Add(10 * time.Second)
		for {
			items, err := store.QueryIndex(probe.Function()+".intent", "pending", dynamo.S("1"), dynamo.QueryOpts{})
			if err != nil {
				return pt, err
			}
			survivors := map[int]bool{}
			for i, w := range pool {
				if i != victim {
					for _, p := range w.Worker().OwnedPartitions() {
						survivors[p] = true
					}
				}
			}
			orphaned := 0
			for _, p := range victimParts {
				if !survivors[p] {
					orphaned++
				}
			}
			if len(items) == 0 && orphaned == 0 {
				break
			}
			if time.Now().After(waitUntil) {
				return pt, fmt.Errorf("bench: cluster sweep: %d workflows still pending, %d of the victim's %d partitions not taken over after kill recovery",
					len(items), orphaned, len(victimParts))
			}
			time.Sleep(5 * time.Millisecond)
		}
		for i, w := range pool {
			if i == victim {
				continue
			}
			pt.Stolen += w.Worker().Stats().Steals.Load()
			pt.Recovered += w.Worker().Stats().Restarts.Load()
		}
		pt.Recovered -= restartsAtKill.Load()
	}
	return pt, nil
}
