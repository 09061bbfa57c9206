package sim

import (
	"fmt"
	"time"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/uuid"
)

// ClusterConfig shapes a simulated worker pool over one shared store.
type ClusterConfig struct {
	// Workers is the pool size; NamePrefix+index names each worker's
	// process ("w0", "w1", ...).
	Workers int
	// NamePrefix distinguishes worker generations; "" means "w". The torn
	// and spec scenarios reopen the store under a second generation ("r").
	NamePrefix string
	// Config carries the protocol parameters (T, RowCap, ...).
	Config beldi.Config
	// Faults is the storage-boundary fault schedule shared by all workers.
	Faults *StoreFaults
	// Skew maps a worker index to its clock skew; nil means none.
	Skew func(i int) time.Duration
	// Register installs the application on each joining worker.
	Register beldi.RegisterApp
	// Rejoin marks a later generation joining a store with earlier workers'
	// unexpired leases still on record (the torn and spec restarts): ownership
	// cannot settle by rebalancing alone, so the owns-something assertion is
	// skipped — the new pumps steal the dead generation's partitions once
	// its leases expire.
	Rejoin bool
}

// Worker is one simulated pool member.
type Worker struct {
	// Name is the worker's id and its scheduler process tag.
	Name string
	// CW is the underlying beldi cluster worker.
	CW *beldi.ClusterWorker
	// Clock is the worker's virtual (possibly skewed) clock.
	Clock *Clock
	// Killed reports a harness-level kill; pumps observe it and exit.
	Killed bool

	asyncN int
}

// Cluster is a simulated multi-worker deployment: every worker holds a
// fault-wrapped view of one shared store, a virtual clock, a sequential id
// source, and scheduler tasks in place of background goroutines.
type Cluster struct {
	// S is the owning scheduler.
	S *Scheduler
	// Inner is the shared store beneath every worker's fault wrapper.
	Inner storage.Backend
	// Workers lists the pool.
	Workers []*Worker

	cfg ClusterConfig
}

// NewCluster builds the pool: workers join with per-worker clocks, id
// sources and fault-wrapped stores, and partition ownership is settled
// deterministically. Call StartPumps (typically from the driver task, or
// before Run) to launch the background pumps. Setup runs before Run, where
// scheduling points are no-ops, so construction is deterministic by
// serialization.
func NewCluster(s *Scheduler, inner storage.Backend, cfg ClusterConfig) (*Cluster, error) {
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "w"
	}
	bc, err := beldi.OpenCluster(beldi.ClusterOptions{
		Store:      inner,
		Partitions: simPartitions,
		LeaseTTL:   simLeaseTTL,
		Config:     cfg.Config,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{S: s, Inner: inner, cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("%s%d", cfg.NamePrefix, i)
		var skew time.Duration
		if cfg.Skew != nil {
			skew = cfg.Skew(i)
		}
		w := &Worker{Name: name, Clock: NewClock(s, skew)}
		popts := &platform.Options{
			// High ceiling and no timeout: admission waits and deadline
			// watchers are wall-clock goroutines the simulation must not
			// depend on.
			ConcurrencyLimit: 1 << 20,
			IDs:              &uuid.Seq{Prefix: name},
			AsyncDispatch: func(run func()) {
				w.asyncN++
				s.Go(TaskOpts{Name: fmt.Sprintf("%s.async%d", name, w.asyncN), Proc: name}, run)
			},
		}
		// Layering invariant: the sim wrapper is the TOP of each worker's
		// store stack. Anything with its own cross-task locking (the
		// speculation overlay above all) must sit beneath it, where its
		// operations run atomically inside one scheduling point — a lock
		// held above the wrapper would be held across parks, and a task
		// contending for it would block the baton (deadlock).
		var wstore storage.Backend = WrapBackend(inner, s, name, cfg.Faults)
		cw, err := bc.JoinClusterWith(name, cfg.Register, beldi.WorkerOptions{
			Clock:    w.Clock,
			IDs:      &uuid.Seq{Prefix: name + "c"},
			Store:    wstore,
			Platform: popts,
		})
		if err != nil {
			return nil, err
		}
		w.CW = cw
		c.Workers = append(c.Workers, w)
	}
	// Settle partition ownership deterministically before any load.
	for round := 0; round < cfg.Workers+2; round++ {
		for _, w := range c.Workers {
			if _, _, err := w.CW.Worker().RebalanceOnce(); err != nil {
				return nil, err
			}
		}
	}
	if !cfg.Rejoin {
		for _, w := range c.Workers {
			if len(w.CW.Worker().OwnedPartitions()) == 0 {
				return nil, fmt.Errorf("sim: worker %s owns no partitions after settling", w.Name)
			}
		}
	}
	return c, nil
}

// StartPumps spawns each worker's background pumps as scheduler tasks in
// place of beldi.ClusterWorker.Start's two loops: a heartbeat pump (renewal
// and post-fence rejoin) and a work pump (detection, rebalancing, and the
// deployment's intent-collection and GC passes, each over every function in
// Deployment.Functions order). The tick is the worker's lease loop's,
// LeaseTTL/4, and detection (every 2 ticks) and rebalancing (every 4) match
// it. Fenced, the work pump runs nothing, as neither real loop runs a pass
// then. The passes run on the pump's ticks, not on the deployment's
// collection loop: an intent-collection pass every 2 ticks and right after
// a detection pass that stole, and a GC pass every 4 (LeaseTTL). The real
// loop runs them every ICMinAge (sooner when a pending row comes due) and
// every T or 4·LeaseTTL, whichever is longer, and is nudged after a
// rebalancing pass that claims partitions too. Asynchronous runs are fired
// in-process (the platform's AsyncDispatch spawns them as tasks), and the
// pump's collection relaunches a lost one. The pinned sim seeds' traces
// depend on these cadences.
func (c *Cluster) StartPumps() {
	for _, w := range c.Workers {
		c.startPumpsFor(w)
	}
}

func (c *Cluster) startPumpsFor(w *Worker) {
	s := c.S
	tick := simLeaseTTL / 4
	wk := w.CW.Worker()
	d := w.CW.Deployment()
	var rts []*core.Runtime
	for _, fn := range d.Functions() {
		rts = append(rts, d.Runtime(fn))
	}
	// collect runs pass over every function, stopping at the first error;
	// the next tick retries.
	collect := func(pass func(*core.Runtime) error) {
		for _, rt := range rts {
			if pass(rt) != nil {
				return
			}
		}
	}
	ic := func(rt *core.Runtime) error { _, err := rt.RunIntentCollector(); return err }
	gc := func(rt *core.Runtime) error { _, err := rt.RunGarbageCollector(); return err }
	s.Go(TaskOpts{Name: w.Name + ".hb", Proc: w.Name, Pump: true}, func() {
		for {
			s.Sleep(tick)
			if w.Killed {
				return
			}
			if wk.Fenced() {
				wk.Rejoin() //nolint:errcheck // retried next tick, like the real loop
				continue
			}
			wk.HeartbeatOnce() //nolint:errcheck // fencing handled next tick
		}
	})
	s.Go(TaskOpts{Name: w.Name + ".work", Proc: w.Name, Pump: true}, func() {
		for n := 1; ; n++ {
			s.Sleep(tick)
			if w.Killed {
				return
			}
			if wk.Fenced() {
				continue // the heartbeat pump rejoins
			}
			if n%2 == 0 {
				if _, stolen, err := wk.DetectOnce(); err == nil && stolen > 0 {
					collect(ic)
				}
			}
			if n%4 == 0 {
				wk.RebalanceOnce() //nolint:errcheck // next tick retries
			}
			if n%2 == 1 {
				collect(ic)
			}
			if n%4 == 2 {
				collect(gc)
			}
		}
	})
}

// Kill drops worker i dead: its pump tasks and spawned handler tasks are
// never scheduled again, and every instance still entering code on its
// platform (synchronous calls from clients) crashes at its next operation
// boundary. The lease is left to expire — peers must detect, steal, and
// finish its work.
func (c *Cluster) Kill(i int) {
	w := c.Workers[i]
	w.Killed = true
	w.CW.Platform().SetFaults(platform.CrashAll{})
	c.S.KillProc(w.Name)
}

// Pause freezes worker i entirely (pumps and in-flight handler tasks) — the
// stop-the-world stall. Keep the pause under the protocol's T: a straggler
// paused past the GC horizon violates the paper's synchrony assumption and
// even correct code may fail audits.
func (c *Cluster) Pause(i int) { c.S.PauseProc(c.Workers[i].Name) }

// Resume unfreezes a paused worker.
func (c *Cluster) Resume(i int) { c.S.ResumeProc(c.Workers[i].Name) }

// Partition cuts worker i's pumps off (no heartbeats, no collection, no
// polling — the lease expires and peers steal) while its in-flight handler
// tasks keep running: the fenced-zombie stressor. Heal with Unpartition;
// the heartbeat pump then rejoins at a higher epoch.
func (c *Cluster) Partition(i int) { c.S.PartitionProc(c.Workers[i].Name, true) }

// Unpartition heals a partitioned worker.
func (c *Cluster) Unpartition(i int) { c.S.PartitionProc(c.Workers[i].Name, false) }

// Live returns a live (non-killed) worker, preferring index i.
func (c *Cluster) Live(i int) *Worker {
	n := len(c.Workers)
	for k := 0; k < n; k++ {
		if w := c.Workers[(i+k)%n]; !w.Killed {
			return w
		}
	}
	return c.Workers[i%n]
}

// PendingIntents counts unfinished intents across the named functions,
// probing the shared store directly.
func (c *Cluster) PendingIntents(fns []string) (int, error) {
	pending := 0
	for _, fn := range fns {
		n, err := core.PendingIntents(c.Inner, fn)
		if err != nil {
			return 0, err
		}
		pending += n
	}
	return pending, nil
}

// Quiesce polls until no intent is pending on the named functions, failing
// once the virtual budget is spent. Call it from the driver task.
func (c *Cluster) Quiesce(fns []string, budget time.Duration) error {
	deadline := c.S.Now().Add(budget)
	for {
		pending, err := c.PendingIntents(fns)
		if err != nil {
			return err
		}
		if pending == 0 {
			return nil
		}
		if c.S.Now().After(deadline) {
			return fmt.Errorf("sim: not quiesced within %v: %d intents pending\n%s",
				budget, pending, c.S.dump())
		}
		c.S.Sleep(simLeaseTTL / 2)
	}
}

// SettleAndCheck advances virtual time through the GC horizon in rounds,
// running a full Fsck after each step — the window where a late
// completion's zombie row is visible before the collector reaps it. rounds
// of LeaseTTL-and-a-half steps; 16 rounds cover several GC generations.
func (c *Cluster) SettleAndCheck(rounds int) error {
	step := simLeaseTTL + simLeaseTTL/2
	for r := 0; r < rounds; r++ {
		c.S.Sleep(step)
		// FsckAll runs in sorted function order, so replays issue identical
		// operation sequences.
		if err := c.Live(0).CW.Deployment().FsckAll(); err != nil {
			return fmt.Errorf("sim: fsck (settle round %d): %w", r, err)
		}
	}
	return nil
}
