package bench

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/beldi"
	"repro/internal/core"
)

// The cluster sweep measures the multi-worker runtime: committed workflow
// steps per second as the worker pool grows from one to several workers over
// one shared backend, with and without a worker being killed mid-window. The
// offered load is closed-loop and per-worker, so the no-kill series shows how
// far the pool scales (the Netherite worker-scaling experiment at simulation
// scale), while the kill series shows what a mid-run death costs and proves
// the survivors absorb the dead worker's partitions: the cell only ends once
// every workflow started in the window has committed exactly once.

const (
	// clusterDrivers is the closed-loop invoker count per worker: offered
	// load scales with the pool.
	clusterDrivers = 8
	// clusterPartitions is the pool's ownership-partition count.
	clusterPartitions = 16
)

// ClusterCell is one (workers, kill) cell of the cluster sweep.
type ClusterCell struct {
	// Label is the pool size in decimal, "/kill" appended for a kill cell.
	Label string
	// Workers is the pool size; Kill kills one worker at half the window.
	Workers int
	Kill    bool
	// Duration is the measured window.
	Duration time.Duration
	// Scale compresses the simulated per-op store latency (1.0 =
	// DynamoDB-like milliseconds). Cloud-shaped latency is what makes the
	// workload latency-bound — the regime where adding workers adds
	// throughput, as in the paper's deployment.
	Scale float64
	Seed  int64
}

// ClusterCells is the cluster sweep: pools of 1, 2 and 4 workers, each pool
// of more than one also with a worker killed mid-window (nothing can recover
// a one-worker pool's kill).
func ClusterCells(duration time.Duration, scale float64, seed int64) []ClusterCell {
	cell := func(workers int, kill bool) ClusterCell {
		label := strconv.Itoa(workers)
		if kill {
			label += "/kill"
		}
		return ClusterCell{Label: label, Workers: workers, Kill: kill, Duration: duration, Scale: scale, Seed: seed}
	}
	return []ClusterCell{cell(1, false), cell(2, false), cell(2, true), cell(4, false), cell(4, true)}
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

// errDown ends a driver of the killed worker: the dead machine drives
// nothing.
var errDown = errors.New("bench: driver's worker was killed")

// RunCluster measures one cell against a fresh shared store and a fresh pool.
func RunCluster(c ClusterCell) (ClusterSweepPoint, error) {
	store := cloudStore(c.Scale, c.Seed)
	cl, err := beldi.OpenCluster(beldi.ClusterOptions{
		Store:      store,
		Partitions: clusterPartitions,
		LeaseTTL:   150 * time.Millisecond,
		Config:     beldi.Config{RowCap: 16, T: 25 * time.Millisecond, TableShards: 8},
	})
	if err != nil {
		return ClusterSweepPoint{}, err
	}
	victim := c.Workers - 1
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
	for i := 0; i < c.Workers; i++ {
		w, err := cl.JoinCluster(fmt.Sprintf("w%d", i), registerStep)
		if err != nil {
			return ClusterSweepPoint{}, err
		}
		pool = append(pool, w)
	}
	// Settle ownership before measuring, then run the protocol loops.
	for round := 0; round < c.Workers+1; round++ {
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
	var killOnce sync.Once
	start := time.Now()
	killAt := start.Add(c.Duration / 2)
	// Driver d offers load to worker d / clusterDrivers. A failed call is
	// counted, not an error: only errDown, which ends a victim's driver,
	// comes back from the loop.
	closedLoop(c.Workers*clusterDrivers, start.Add(c.Duration), func(d, _ int) error { //nolint:errcheck // only errDown
		wi := d / clusterDrivers
		if c.Kill && time.Now().After(killAt) {
			killOnce.Do(func() {
				victimParts = pool[victim].Worker().OwnedPartitions()
				pool[victim].Kill()
				killed = true
				// Baseline for the Recovered column: restarts after this
				// moment are the kill's recovery work.
				for i, w := range pool {
					if i != victim {
						restartsAtKill.Add(w.Worker().Stats().Restarts.Load())
					}
				}
			})
			if wi == victim {
				return errDown
			}
		}
		k := keySeq.Add(1)
		req := beldi.Fields(beldi.F("key", beldi.Str(fmt.Sprintf("k%04d", k%cellKeys))))
		if _, err := pool[wi].Invoke("step", req); err != nil {
			failed.Add(1)
			if wi == victim {
				return errDown // its platform is dying; stop offering
			}
			return nil
		}
		steps.Add(1)
		return nil
	})
	elapsed := time.Since(start)

	pt := ClusterSweepPoint{
		Workers:    c.Workers,
		Killed:     c.Kill,
		Steps:      steps.Load(),
		Throughput: float64(steps.Load()) / elapsed.Seconds(),
		Failed:     failed.Load(),
		Elapsed:    elapsed,
	}

	if c.Kill {
		// The cell is only done when the survivors have finished every
		// workflow the dead worker left behind — and have taken over its
		// partitions: a victim killed with nothing in flight leaves no
		// pending intent, and the counters read below would otherwise race
		// the lease's expiry.
		probe := pool[0].Deployment().Runtime("step")
		waitUntil := time.Now().Add(10 * time.Second)
		for {
			pending, err := core.PendingIntents(store, probe.Function())
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
			if pending == 0 && orphaned == 0 {
				break
			}
			if time.Now().After(waitUntil) {
				return pt, fmt.Errorf("bench: cluster sweep: %d workflows still pending, %d of the victim's %d partitions not taken over after kill recovery",
					pending, orphaned, len(victimParts))
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
