package bench

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/beldi"
	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/platform"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/uuid"
	"repro/internal/walstore"
)

// The step-commit cell runner. The paper's §7 prices one thing — a logged
// step — on different substrates, so the shard, backend, remote, pipeline and
// latency figures are one workload with different parameters: a deployment
// whose single SSF logs StepsPerInvoke writes per invocation, hammered by
// closed-loop workers for a fixed window. A Cell is the parameters, RunCell
// the one runner, a Point what it measured; each figure is a list of cells
// (cellsets.go).

// BackendKind names a store and, for the WAL, its sync policy.
type BackendKind string

// The store kinds a cell runs on.
const (
	// BackendMemory is the in-memory dynamo store.
	BackendMemory BackendKind = "memory"
	// BackendWALBatched is the walstore with group-committed fsyncs.
	BackendWALBatched BackendKind = "wal-batched"
	// BackendWALEach is the walstore fsyncing every record individually.
	BackendWALEach BackendKind = "wal-each"
	// BackendWALNoSync is the walstore journaling without fsync — isolates
	// the write-path cost from the flush cost.
	BackendWALNoSync BackendKind = "wal-nosync"
)

// The two values no committed cell varies.
const (
	// cellKeys is the number of distinct item keys the workers write, spread
	// uniformly (more keys than shards, so striping has partitions to
	// distribute).
	cellKeys = 256
	// cellRowCap is the DAAL row capacity of every cell's deployment.
	cellRowCap = 16
)

// Cell describes one measurement completely: nothing is defaulted, so a
// figure's cell list is the whole of its parameters.
type Cell struct {
	// Figure is the id cmd/figures prints the cell under; Label names its
	// row within that figure.
	Figure, Label string

	// Backend is the store under the deployment.
	Backend BackendKind
	// Shards and GroupCommit configure the in-memory store's write path: the
	// shard count per table, and whether writes queued behind a shard's
	// latch commit as one batch. The WAL kinds ignore both.
	Shards      int
	GroupCommit bool
	// Scale and Flush are the in-memory store's latency model. Scale > 0
	// charges cloud-shaped per-op round trips compressed by that factor;
	// Flush is held inside the shard's critical section once per committed
	// batch, the way a real partition holds its latch across the persistence
	// round. Both zero is the raw substrate ceiling. The WAL kinds pay real
	// disk time instead and ignore both.
	Scale float64
	Flush time.Duration
	// Wire puts the store behind a loopback internal/remote server that
	// delays every request by RTT.
	Wire bool
	RTT  time.Duration

	// Depth is the commit pipeline's depth. Depth ≤ 1 is synchronous — no
	// overlay, every logged write pays its own store round trip before the
	// workflow advances; Depth n > 1 runs the speculation overlay with at
	// most n unflushed writes across all workers, each reply fenced on the
	// durability watermark.
	Depth int
	// StepsPerInvoke is the number of logged writes per invocation — the
	// lever speculation amortizes.
	StepsPerInvoke int
	// Workers is the offered load: closed-loop invokers.
	Workers int
	// Duration is the measured window. Warmup, when positive, runs the same
	// load first and discards its samples (cold-start and first-touch costs
	// would otherwise dominate p99 on short windows).
	Duration, Warmup time.Duration
	// Telemetry attaches a telemetry hub, which fills the Point's step-commit
	// and fsync quantiles.
	Telemetry bool
	Seed      int64
}

// Point is a Cell and what its window measured. Counters are deltas over the
// window; a quantity the cell's substrate does not have reads zero.
type Point struct {
	Cell
	// Invokes completed in the window, the logged steps they carried
	// (Invokes × StepsPerInvoke), and Steps per second.
	Invokes, Steps int64
	Throughput     float64
	// Client-observed latency of one invocation, call to durable reply.
	P50, P90, P99, Max, Mean time.Duration

	// In-memory store group commit: batches committed, the writes they
	// carried and their ratio. MeanBatch is 1 for a memory cell that
	// committed every write alone.
	GroupCommits, GroupCommitOps int64
	MeanBatch                    float64
	// WAL: fsyncs, commit-path sync batches, the records they made durable,
	// their ratio and the log volume appended. SyncBatch is 1 for a cell
	// that fsynced without forming a batch.
	Fsyncs, SyncBatches, BatchedRecords int64
	SyncBatch                           float64
	WALBytes                            int64
	// Speculation overlay: committer flushes, the post-image rows they
	// carried, their ratio, and the store's modeled per-batch commit cost
	// summed over the flushes (in-memory store only).
	PipeFlushes, PipeRows int64
	PipeBatch             float64
	ModeledFlushTime      time.Duration
	// Wire: RPCs and per-RPC p99. RPCs/Steps is the per-step round-trip
	// multiplier.
	RPCs   int64
	RPCP99 time.Duration
	// Telemetry: the runtime's step-commit latency and, on the WAL kinds,
	// fsync latency. The gap between step and request tails is the
	// protocol's overhead; between fsync and step, what group commit
	// amortizes.
	StepP50, StepP99, FsyncP50, FsyncP99 time.Duration
	Elapsed                              time.Duration
}

// substrate is a cell's opened store and the handles its counters are read
// through; a handle the cell does not have is nil.
type substrate struct {
	store  storage.Backend
	mem    *dynamo.Store
	wal    *walstore.Store
	client *remote.Client
	undo   []func()
}

// dialWire connects a substrate's client to its loopback server. A variable
// so that a test can point it at a closed port.
var dialWire = remote.Dial

// openSubstrate builds the cell's store: memory, or a WAL in a fresh temp
// directory under the kind's sync policy, either one optionally behind a
// loopback wire server. Close undoes whatever was opened, in reverse order;
// a failure half-way closes what it had opened before returning.
func openSubstrate(c Cell) (_ *substrate, err error) {
	s := &substrate{}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	policy := walstore.SyncBatched
	switch c.Backend {
	case BackendMemory:
		opts := []dynamo.Option{dynamo.WithShards(c.Shards), dynamo.WithGroupCommit(c.GroupCommit)}
		if c.Scale > 0 || c.Flush > 0 {
			opts = append(opts, dynamo.WithLatency(dynamo.CommitCost{
				Inner: dynamo.NewCloudLatency(c.Scale, c.Seed),
				Flush: c.Flush,
			}))
		}
		s.mem = dynamo.NewStore(opts...)
		s.store = s.mem
	case BackendWALEach:
		policy = walstore.SyncEach
	case BackendWALNoSync:
		policy = walstore.SyncNone
	case BackendWALBatched:
	default:
		return nil, fmt.Errorf("unknown backend %q", c.Backend)
	}
	if s.mem == nil {
		dir, err := os.MkdirTemp("", "beldi-bench-*")
		if err != nil {
			return nil, err
		}
		s.undo = append(s.undo, func() { os.RemoveAll(dir) })
		if s.wal, err = walstore.Open(dir, walstore.Options{Sync: policy}); err != nil {
			return nil, err
		}
		s.undo = append(s.undo, func() { s.wal.Close() })
		s.store = s.wal
	}
	if c.Wire {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := remote.NewServer(s.store, remote.ServeOptions{Delay: c.RTT})
		go srv.Serve(lis) //nolint:errcheck // returns once the server is closed
		// Serve closes the listener itself, but only once its goroutine has
		// run; closing it here too makes Close synchronous.
		s.undo = append(s.undo, func() { srv.Close(); lis.Close() })
		if s.client, err = dialWire(lis.Addr().String(), remote.Options{}); err != nil {
			return nil, err
		}
		s.undo = append(s.undo, func() { s.client.Close() })
		s.store = s.client
	}
	return s, nil
}

// Close releases everything openSubstrate opened, last first.
func (s *substrate) Close() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.undo[i]()
	}
	s.undo = nil
}

// tally adds sign × each of the substrate's cumulative counters to p: called
// with -1 when the window opens and +1 when it closes, it leaves the window's
// deltas.
func (s *substrate) tally(p *Point, d *beldi.Deployment, sign int64) {
	if s.mem != nil {
		m := s.mem.Metrics().Snapshot()
		p.GroupCommits += sign * m.GroupCommits
		p.GroupCommitOps += sign * m.GroupCommitOps
	}
	if s.wal != nil {
		w := s.wal.WAL()
		p.Fsyncs += sign * w.Fsyncs.Load()
		p.SyncBatches += sign * w.SyncBatches.Load()
		p.BatchedRecords += sign * w.BatchedRecords.Load()
		p.WALBytes += sign * w.BytesAppended.Load()
	}
	if pipe := d.Pipeline(); pipe != nil {
		st := pipe.Snapshot()
		p.PipeFlushes += sign * st.Flushes
		p.PipeRows += sign * st.FlushedRows
		p.ModeledFlushTime += time.Duration(sign) * st.ModeledFlushTime
	}
	if s.client != nil {
		p.RPCs += sign * s.client.Stats().Snapshot().RPCs
	}
}

// meanBatch is the figures' amortization ratio, items per batch: 1 when the
// cell committed without forming a batch, 0 only when it committed nothing of
// the kind.
func meanBatch(items, batches, commits int64) float64 {
	switch {
	case batches > 0:
		return float64(items) / float64(batches)
	case commits > 0:
		return 1
	}
	return 0
}

// closedLoop runs workers goroutines, each calling do(w, i) for i = 0, 1, …
// until the deadline passes or its own call fails (the others run out the
// window), and returns the latency of every successful call and the first
// error. Each worker records into its own histogram, merged at the end, so
// the measurement itself is uncontended.
func closedLoop(workers int, deadline time.Time, do func(w, i int) error) (*hist.Histogram, error) {
	locals := make([]hist.Histogram, workers)
	var firstErr error
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				if err := do(w, i); err != nil {
					once.Do(func() { firstErr = err })
					return
				}
				locals[w].Record(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	merged := new(hist.Histogram)
	for w := range locals {
		merged.Merge(&locals[w])
	}
	return merged, firstErr
}

// window is a cell's timed part: the warmup loop, whose samples are dropped;
// open, the caller's hook for zeroing what it counts; then the measured loop,
// whose latencies and length it returns.
func window(c Cell, open func(), do func(w, i int) error) (*hist.Histogram, time.Duration, error) {
	if c.Warmup > 0 {
		if _, err := closedLoop(c.Workers, time.Now().Add(c.Warmup), do); err != nil {
			return nil, 0, err
		}
	}
	open()
	start := time.Now()
	lat, err := closedLoop(c.Workers, start.Add(c.Duration), do)
	return lat, time.Since(start), err
}

// stepBody is the one SSF every cell runs: steps logged writes of the
// request's Val to table "state", at the request's Key (suffixed per step
// when there are several).
func stepBody(steps int) beldi.Body {
	return func(e *beldi.Env, input beldi.Value) (beldi.Value, error) {
		key := input.Get("Key").Str()
		for j := 0; j < steps; j++ {
			k := key
			if steps > 1 {
				k = fmt.Sprintf("%s-%d", key, j)
			}
			if err := e.Write("state", k, input.Get("Val")); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Null, nil
	}
}

// RunCell measures one cell against a fresh substrate and a fresh
// deployment: the window opens by tallying the counters and resetting the
// layers' latency histograms, and closes after the deployment has stopped, so
// the overlay's last flushes count.
func RunCell(c Cell) (Point, error) {
	fail := func(err error) (Point, error) {
		return Point{}, fmt.Errorf("bench: %s cell %s: %w", c.Figure, c.Label, err)
	}
	if c.Workers < 1 || c.StepsPerInvoke < 1 || (c.Backend == BackendMemory && c.Shards < 1) {
		return fail(fmt.Errorf("malformed: %d workers, %d steps per invoke, %d shards", c.Workers, c.StepsPerInvoke, c.Shards))
	}
	sub, err := openSubstrate(c)
	if err != nil {
		return fail(err)
	}
	defer sub.Close()

	dopts := beldi.DeploymentOptions{
		Store: sub.store,
		Platform: platform.New(platform.Options{
			ConcurrencyLimit: c.Workers * 2,
			Seed:             c.Seed,
			IDs:              &uuid.Seq{Prefix: "req"},
		}),
		Mode:   beldi.ModeBeldi,
		Config: beldi.Config{RowCap: cellRowCap},
	}
	if c.Depth > 1 {
		dopts.Speculation = &beldi.SpeculationOptions{Depth: c.Depth}
	}
	// The latency histograms other layers keep; an empty one stands in where
	// the cell has no such layer.
	stepHist, fsyncHist, rpcHist := new(hist.Histogram), new(hist.Histogram), new(hist.Histogram)
	if c.Telemetry {
		dopts.Telemetry = beldi.NewTelemetry()
		stepHist = dopts.Telemetry.Registry.Histogram("core.step.step_commit")
		fsyncHist = dopts.Telemetry.Registry.Histogram("wal.fsync")
	}
	if sub.client != nil {
		rpcHist = sub.client.RPCLatency()
	}
	d := beldi.NewDeployment(dopts)
	d.Function("step", stepBody(c.StepsPerInvoke), "state")
	invoke := func(w, i int) error {
		_, err := d.Invoke("step", beldi.Fields(
			beldi.F("Key", beldi.Str(fmt.Sprintf("k%04d", (w*31+i)%cellKeys))),
			beldi.F("Val", beldi.Int(int64(i))),
		))
		return err
	}

	pt := Point{Cell: c}
	lat, elapsed, err := window(c, func() {
		sub.tally(&pt, d, -1)
		stepHist.Reset()
		fsyncHist.Reset()
		rpcHist.Reset()
	}, invoke)
	d.Stop()
	if err != nil {
		return fail(err)
	}
	sub.tally(&pt, d, +1)

	pt.Elapsed = elapsed
	pt.Invokes = lat.Count()
	pt.Steps = pt.Invokes * int64(c.StepsPerInvoke)
	pt.Throughput = float64(pt.Steps) / elapsed.Seconds()
	pt.P50, pt.P90, pt.P99 = lat.Median(), lat.Quantile(0.9), lat.P99()
	pt.Max, pt.Mean = lat.Max(), lat.Mean()
	if sub.mem != nil {
		pt.MeanBatch = meanBatch(pt.GroupCommitOps, pt.GroupCommits, pt.Steps)
	}
	pt.SyncBatch = meanBatch(pt.BatchedRecords, pt.SyncBatches, pt.Fsyncs)
	pt.PipeBatch = meanBatch(pt.PipeRows, pt.PipeFlushes, 0)
	pt.RPCP99 = rpcHist.P99()
	pt.StepP50, pt.StepP99 = stepHist.Median(), stepHist.P99()
	pt.FsyncP50, pt.FsyncP99 = fsyncHist.Median(), fsyncHist.P99()
	return pt, nil
}
