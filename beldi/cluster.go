package beldi

// This file is the public face of the multi-worker distributed runtime
// (internal/cluster): OpenCluster declares a worker pool over one shared
// Backend, and JoinCluster adds workers to it — each with its own platform,
// its own registration of the application's SSFs, a lease it heartbeats,
// and a slice of the intent space whose recovery it owns. Workers steal a
// dead peer's partitions and finish its in-flight workflows exactly once;
// epoch fencing makes a revoked worker's late claims land nowhere. See
// OPERATIONS.md for running and tuning clustered deployments.

import (
	"cmp"
	"fmt"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// ClusterOptions configure OpenCluster. Every worker's functions run in
// ModeBeldi.
type ClusterOptions struct {
	// Name identifies the cluster: workers joining the same name on the
	// same Store form one pool. Default "main".
	Name string
	// Store is the shared backend every worker coordinates over — in-memory
	// for simulation, the WAL-backed store for durability. Required.
	Store Backend
	// Config tunes protocol parameters for every worker's functions.
	Config Config
	// Partitions is the number of ownership partitions the intent space is
	// divided into; it is fixed at cluster creation (rejoining pools adopt
	// the persisted count). 0 means cluster.DefaultPartitions.
	Partitions int
	// LeaseTTL is how long a silent worker keeps its lease before peers
	// declare it dead and steal its work. 0 means cluster.DefaultLeaseTTL.
	LeaseTTL time.Duration
	// DurableAsync, when non-nil, enables durable asynchrony on every
	// worker's deployment: the launch budget on async intents, which the
	// owning worker's collection loop relaunches, and durable timers, which
	// the same loop fires when they come due, as a deployment's does.
	DurableAsync *DurableAsyncOptions
}

// Cluster is a handle on a worker pool's shared configuration. It holds no
// goroutines and no lease of its own; workers do.
type Cluster struct {
	opts ClusterOptions
}

// OpenCluster validates the pool's options and returns the handle workers
// join through. The shared tables are created lazily by the first worker.
func OpenCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("beldi: OpenCluster: Store is required")
	}
	return &Cluster{opts: opts}, nil
}

// MustOpenCluster is OpenCluster, panicking on error; for setup code.
func MustOpenCluster(opts ClusterOptions) *Cluster {
	c, err := OpenCluster(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// RegisterApp installs an application on a joining worker's deployment:
// every worker of a pool must register the same function set (the same code
// deployed to every node), which is what lets any worker resume any
// workflow.
type RegisterApp func(d *Deployment)

// ClusterWorker is one member of the pool: a full Deployment (its own
// platform and function registry over the shared store) plus the cluster
// worker that leases, detects and steals for it, and whose ownership
// scopes the deployment's intent collection.
type ClusterWorker struct {
	c    *Cluster
	d    *Deployment
	w    *cluster.Worker
	plat *platform.Platform
}

// JoinCluster adds a worker to the pool: it builds the worker's deployment
// over the shared store (adopting the tables earlier workers created), runs
// register to install the application, acquires the worker's lease, and
// scopes the deployment's collectors to the partitions the worker owns
// (the worker is every runtime's CollectorGate). Pass id "" to
// auto-generate one. Call Start to launch the background loops, or drive
// the Worker's *Once methods and the deployment's collectors
// deterministically.
func (c *Cluster) JoinCluster(id string, register RegisterApp) (*ClusterWorker, error) {
	return c.JoinClusterWith(id, register, WorkerOptions{})
}

// WorkerOptions customize one worker joining a pool — the per-worker knobs a
// deterministic harness (internal/sim) injects: a virtual clock, a
// sequential id source, a fault-wrapped view of the shared store, and
// platform overrides. The zero value keeps every pool default.
type WorkerOptions struct {
	// Clock drives the worker's deployment (protocol timestamps, durable
	// timers' due times) and its cluster lease machinery. Nil means the wall
	// clock. Distinct workers may carry distinct (skewed) clocks.
	Clock clock.Clock
	// IDs mints the worker's instance and worker ids. Nil means
	// random UUIDs.
	IDs uuid.Source
	// Store, when non-nil, replaces the pool's shared Store for this
	// worker's deployment and cluster machinery. It must address the same
	// underlying tables — the intended use is a fault- or delay-injecting
	// wrapper around the pool's Store, not a different database.
	Store Backend
	// Platform, when non-nil, shapes this worker's in-process platform
	// (per-worker seeds, fault plans, dispatch hooks). Nil means
	// platform.Options{}.
	Platform *platform.Options
}

// JoinClusterWith is JoinCluster with per-worker overrides; see
// WorkerOptions.
func (c *Cluster) JoinClusterWith(id string, register RegisterApp, wo WorkerOptions) (*ClusterWorker, error) {
	var popts platform.Options
	if wo.Platform != nil {
		popts = *wo.Platform
	}
	if popts.IDs == nil {
		popts.IDs = wo.IDs
	}
	store := c.opts.Store
	if wo.Store != nil {
		store = wo.Store
	}
	plat := platform.New(popts)
	d := NewDeployment(DeploymentOptions{
		Store:    store,
		Platform: plat,
		Config:   c.opts.Config,
		Clock:    wo.Clock,
		IDs:      wo.IDs,
	})
	register(d)
	w, err := cluster.Join(cluster.Options{
		Cluster:    c.opts.Name,
		ID:         id,
		Store:      store,
		LeaseTTL:   c.opts.LeaseTTL,
		Partitions: c.opts.Partitions,
		Clock:      wo.Clock,
		IDs:        wo.IDs,
	})
	if err != nil {
		return nil, err
	}
	cw := &ClusterWorker{c: c, d: d, w: w, plat: plat}
	for _, rt := range d.runtimes {
		rt.SetCollectorGate(w)
	}
	if c.opts.DurableAsync != nil {
		if _, err := d.enableDurableAsync(*c.opts.DurableAsync); err != nil {
			return nil, err
		}
	}
	return cw, nil
}

// Deployment returns the worker's deployment — the surface workflows are
// invoked through. Requests may enter at any live worker; recovery of
// whatever they start is governed by partition ownership, not by the entry
// point.
func (cw *ClusterWorker) Deployment() *Deployment { return cw.d }

// Worker returns the underlying cluster worker (leases, partitions,
// detection, stats) for deterministic driving and inspection.
func (cw *ClusterWorker) Worker() *cluster.Worker { return cw.w }

// Platform returns the worker's in-process platform.
func (cw *ClusterWorker) Platform() *platform.Platform { return cw.plat }

// Invoke calls a function synchronously through this worker.
func (cw *ClusterWorker) Invoke(name string, input Value) (Value, error) {
	return cw.d.Invoke(name, input)
}

// Start launches the worker's two background loops: the deployment's
// collection loop (StartCollectors), whose intent-collection passes claim
// only what the worker owns, and the worker's lease loop — heartbeats,
// failure detection and rebalancing. A detection pass that steals a dead
// peer's partitions, or a rebalancing pass that claims some, nudges the
// collection loop for a pass at once. Two things set the worker's loop
// apart from a lone deployment's. It runs no pass while the worker is
// fenced: it owns nothing to collect, and its GC would race the thief's
// recovery for nothing. And it runs GC every 4·LeaseTTL when T is shorter:
// a GC pass is not scoped by ownership, so each worker's pass covers the
// whole pool's intents, and with a T as short as the lease's ticks every
// worker's loop would spend its time in GC. Start after Stop starts both
// loops again.
func (cw *ClusterWorker) Start() {
	cw.d.startCollectors(4*cmp.Or(cw.c.opts.LeaseTTL, cluster.DefaultLeaseTTL), cw.w.Fenced, true)
	cw.w.Start(cw.d.nudgeCollectors)
}

// Stop halts the worker's loops without releasing its lease — the
// crash-shaped stop (peers will eventually declare it dead). Use Leave for
// a graceful exit.
func (cw *ClusterWorker) Stop() {
	cw.w.Stop()
	cw.d.Stop()
}

// Leave exits the pool gracefully: partitions released for immediate
// rebalancing, lease marked dead, loops stopped.
func (cw *ClusterWorker) Leave() error {
	err := cw.w.Leave()
	cw.d.Stop()
	return err
}

// Kill simulates the worker's machine dying: every in-flight instance on
// its platform is killed at its next operation boundary, the loops stop,
// and the lease is left to expire — the scenario the pool's failure
// detector and work stealing exist for. Kill does not wait for a
// collection pass in flight, as a dying machine does not finish one: the
// pass ends on its own, a late collector like any other (§5). Chaos tests
// and the cluster demo use it; production workers just die.
func (cw *ClusterWorker) Kill() {
	cw.plat.SetFaults(platform.CrashAll{})
	cw.w.Stop()
	cw.d.haltCollectors()
}

// Functions lists the deployment's registered function names in sorted
// order.
func (d *Deployment) Functions() []string {
	out := make([]string, 0, len(d.runtimes))
	for name := range d.runtimes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
