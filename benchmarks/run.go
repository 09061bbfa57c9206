package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"
)

// minTimedEpisodes is the floor on timed episodes of an end-to-end run:
// fastest-of-episodes needs a handful of tries to find a quiet one.
const minTimedEpisodes = 6

// Episode counts of a per-layer run (--trace 1): counts repeat from episode
// to episode, so a few untraced episodes are enough for the ledger and for
// the throughput the traced ones are compared against.
const (
	layerTimedEpisodes = 3
	tracedEpisodes     = 2
)

// runOptions select what one run of one workload measures.
type runOptions struct {
	w        *workload
	seed     int64
	seconds  float64 // how long the timed episodes of an end-to-end run go on for
	endToEnd bool    // measure the end-to-end metrics
	layers   bool    // measure the per-layer metrics (traced pass and probes)
	smoke    bool    // 1 warm-up + 1 tiny episode, every gate
	out      string  // directory for trace-<workload>.json ("" = do not write)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// Client repeats the client-side timings of PerLayer on every run, so
	// that -aa and -compare can show them beside the gated metrics.
	Client map[string]metricValue `json:"client"`
	Info   map[string]string      `json:"info"`
	Errors []string               `json:"errors,omitempty"`
}

// tailData is what the untimed tail of the last timed episode measured.
type tailData struct {
	liveHeap    uint64
	storedBytes int64
	gcBusy      time.Duration
	gcCounts    counts
	recovery    recoveryResult
	compact     time.Duration
	recoverTook time.Duration
	recovered   int64
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload runs the warm-up, the timed episodes and, for a per-layer
// run, the traced episodes and the probes of one workload.
func runWorkload(o runOptions) (*result, error) {
	w := o.w
	n := w.n
	if o.smoke {
		n = w.smokeN
	}
	deploy := w.prepare(o.seed, n)
	res := &result{Workload: w.name, Seed: o.seed, Info: map[string]string{
		"workflows_per_episode": fmt.Sprint(n),
		"clients":               "1 closed-loop",
		"gomaxprocs":            fmt.Sprint(runtime.GOMAXPROCS(0)),
	}}
	if w.spec.sub != subMemory {
		home := walHome()
		res.Info["wal_dir"] = fmt.Sprintf("%s (%s)", home.root, home.kind)
		res.Info["wal_sync"] = home.opts.Sync.String()
	}
	if w.spec.delay > 0 {
		res.Info["injected_server_delay"] = w.spec.delay.String()
	}

	account := func(ep *episode) {
		res.Attempted += ep.n
		res.Failed += ep.failed
		for _, err := range ep.errs {
			if len(res.Errors) < 10 {
				res.Errors = append(res.Errors, err.Error())
			}
		}
	}

	// Warm-up: fills caches, grows the heap and the runtime's pools; its
	// numbers are discarded, its failures are not.
	warm, err := runEpisode(w, deploy, n, o.seed, episodeHooks{})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	account(warm)

	// Timed episodes. The last one also runs the untimed tail.
	var tail tailData
	hooks := episodeHooks{
		tail: func(s *stack, prog *program) error { return runTail(s, prog, w, o, &tail) },
		wal: func(s *stack, took time.Duration, recovered int64) error {
			tail.recoverTook, tail.recovered = took, recovered
			if !o.layers {
				return nil
			}
			// One explicit compaction, then recovery from the snapshot it
			// wrote must give the same tables again.
			t0 := time.Now()
			if err := s.wal.Compact(); err != nil {
				return fmt.Errorf("compacting WAL: %w", err)
			}
			tail.compact = time.Since(t0)
			_, _, err := s.reopenCheck()
			return err
		},
	}
	var timed []*episode
	var spent time.Duration
	for {
		last := false
		switch {
		case o.smoke:
			last = true
		case !o.endToEnd:
			last = len(timed)+1 >= layerTimedEpisodes
		default:
			// Fixed work per episode, so "measure for --seconds" decides
			// how many episodes run: stop once the next one is expected to
			// fill the budget.
			next := warm.elapsed
			if len(timed) > 0 {
				next = spent / time.Duration(len(timed))
			}
			last = len(timed)+1 >= minTimedEpisodes && (spent+next).Seconds() >= o.seconds
		}
		h := episodeHooks{}
		if last {
			h = hooks
		}
		ep, err := runEpisode(w, deploy, n, o.seed, h)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", len(timed)+1, err)
		}
		account(ep)
		timed = append(timed, ep)
		spent += ep.elapsed
		if last {
			break
		}
	}

	// Traced episodes: decorators in place, spans in memory. End-to-end
	// metrics are never taken from them.
	var traced []*episode
	if o.layers {
		k := tracedEpisodes
		if o.smoke {
			k = 1
		}
		for i := 0; i < k; i++ {
			h := episodeHooks{traced: true}
			if o.out != "" && i == k-1 {
				h.spans = func(workflows, core, server []span) error {
					return writeTrace(o.out, w.name, o.seed, workflows, core, server)
				}
			}
			ep, err := runEpisode(w, deploy, n, o.seed, h)
			if err != nil {
				return nil, fmt.Errorf("traced episode %d: %w", i+1, err)
			}
			account(ep)
			traced = append(traced, ep)
			// The decorators must not change what the system does: on the
			// single-path workloads the counts are a function of the input.
			if w.singlePath {
				if d := ep.counts.diff(timed[0].counts); len(d) > 0 {
					sort.Strings(d)
					res.Failed += ep.n - ep.failed
					res.Errors = append(res.Errors, fmt.Sprintf("traced episode counts differ from untraced on %v", d))
				}
			}
		}
	}
	if w.singlePath {
		for i, ep := range timed[1:] {
			if d := ep.counts.diff(timed[0].counts); len(d) > 0 {
				sort.Strings(d)
				res.Failed += ep.n - ep.failed
				res.Errors = append(res.Errors, fmt.Sprintf("episode %d counts differ from episode 1 on %v", i+2, d))
			}
		}
	}
	res.Info["timed_episodes"] = fmt.Sprint(len(timed))
	if r := tail.recovery; r.crashed > 0 {
		res.Info["recovery_probe"] = fmt.Sprintf("%d workflows failed by a kill at a step boundary and finished by %d collector re-launches; %d more kills healed in place by the caller",
			r.crashed, r.restarts, r.healed)
	}

	client := clientMetrics(timed)
	res.Client = withUnits(clientTimings, client)
	if o.endToEnd {
		res.EndToEnd = endToEndMetrics(timed, &tail)
	}
	if o.layers {
		res.PerLayer, err = layerMetrics(w, o.smoke, timed, traced, &tail, client)
		if err != nil {
			return nil, err
		}
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// runTail measures, on the last timed episode's quiet system: the live heap,
// the collectors as their own layer, the storage footprint they leave, and
// (per-layer runs) the recovery probe.
func runTail(s *stack, prog *program, w *workload, o runOptions, tail *tailData) error {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tail.liveHeap = m.HeapAlloc

	// Stop the queue pollers so their idle receives are not billed to the
	// collectors.
	if s.da != nil {
		s.da.Stop()
	}
	// Collector passes, explicit and outside every timed window: stamp the
	// finished intents, then after each wait of 3·T recycle them, disconnect
	// their log rows and delete the dangling rows, so that what survives is
	// a function of the input alone. The functions are collected in sorted
	// order: Deployment.RunAllCollectors walks a map, and what a pass leaves
	// behind depends on the order (some orders strand the reservation
	// transactions' registry rows for good).
	before := sample(s)
	for pass := 0; pass < 4; pass++ {
		if pass > 0 {
			time.Sleep(3 * benchConfig.T)
		}
		t0 := time.Now()
		for _, fn := range s.d.Functions() {
			rt := s.d.Runtime(fn)
			if _, err := rt.RunIntentCollector(); err != nil {
				return fmt.Errorf("intent collector of %s: %w", fn, err)
			}
			if _, err := rt.RunGarbageCollector(); err != nil {
				return fmt.Errorf("garbage collector of %s: %w", fn, err)
			}
		}
		tail.gcBusy += time.Since(t0)
	}
	if err := s.quiesce(); err != nil {
		return err
	}
	tail.gcCounts = sample(s).sub(before)
	sizes, err := tableSizes(s.bottom())
	if err != nil {
		return err
	}
	for _, sz := range sizes {
		tail.storedBytes += int64(sz[1])
	}

	if o.layers && w.recoveryProbe && prog.recovery != nil {
		if tail.recovery, err = prog.recovery(); err != nil {
			return fmt.Errorf("recovery probe: %w", err)
		}
		if tail.recovery.crashed == 0 {
			return fmt.Errorf("recovery probe: no instance was killed")
		}
	}
	return nil
}

// fastest returns the episode with the highest throughput.
func fastest(eps []*episode) *episode {
	best := eps[0]
	for _, ep := range eps[1:] {
		if ep.elapsed < best.elapsed {
			best = ep
		}
	}
	return best
}

// pooledLatencies returns every request latency of the episodes, sorted.
func pooledLatencies(eps []*episode) []time.Duration {
	var lat []time.Duration
	for _, ep := range eps {
		lat = append(lat, ep.lat...)
	}
	slices.Sort(lat)
	return lat
}

// clientMetrics are what the one client saw: throughput of the fastest timed
// episode (interference only adds time) and latency quantiles over all timed
// episodes' requests.
func clientMetrics(timed []*episode) map[string]float64 {
	f := fastest(timed)
	lat := pooledLatencies(timed)
	return map[string]float64{
		"bench.workflows_per_s": float64(f.n) / f.elapsed.Seconds(),
		"bench.workflow_p50_ms": ms(quantile(lat, 0.50)),
		"bench.workflow_p95_ms": ms(quantile(lat, 0.95)),
	}
}

func endToEndMetrics(timed []*episode, tail *tailData) map[string]metricValue {
	setups := make([]time.Duration, len(timed))
	total := counts{}
	var workflows, mallocs, allocBytes float64
	for i, ep := range timed {
		setups[i] = ep.setup
		total.add(ep.counts)
		workflows += float64(ep.n)
		mallocs += float64(ep.mallocs)
		allocBytes += float64(ep.allocBytes)
	}
	slices.Sort(setups)
	v := map[string]float64{
		"setup_s":                   quantile(setups, 0.5).Seconds(),
		"allocs_per_workflow":       mallocs / workflows,
		"alloc_kb_per_workflow":     allocBytes / workflows / 1000,
		"live_heap_mb":              float64(tail.liveHeap) / 1e6,
		"store_ops_per_workflow":    float64(total["store.ops"]) / workflows,
		"stored_bytes_per_workflow": float64(tail.storedBytes) / float64(timed[0].n),
	}
	return withUnits(endToEnd, v)
}

func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out
}

func layerMetrics(w *workload, smoke bool, timed, traced []*episode, tail *tailData, client map[string]float64) (map[string]metricValue, error) {
	total := counts{}
	var workflows, cpu, gcCycles float64
	peak := 0
	elapsed := make([]time.Duration, len(timed))
	for i, ep := range timed {
		total.add(ep.counts)
		workflows += float64(ep.n)
		cpu += ms(ep.cpu)
		gcCycles += float64(ep.gcCycles)
		peak = max(peak, ep.goroutines)
		elapsed[i] = ep.elapsed
	}
	slices.Sort(elapsed)
	per := func(key string) float64 { return float64(total[key]) / workflows }
	steps := float64(total["core.reads"] + total["core.writes"] + total["core.cond_writes"] +
		total["core.sync_calls"] + total["core.async_calls"])
	n := float64(timed[0].n)
	f := fastest(timed)

	var tr traceSummary
	for _, ep := range traced {
		tr.add(*ep.trace)
	}
	slices.Sort(tr.opDurs)
	perTraced := func(ns int64) float64 { return ratio(float64(ns)/1e6, float64(tr.workflows)) }
	var opP50 float64
	if len(tr.opDurs) > 0 {
		opP50 = float64(tr.opDurs[len(tr.opDurs)/2]) / 1e3
	}
	// The core seam's time splits by what is under it: on memory it is the
	// dynamo store's time; on an in-process WAL the walstore's; behind the
	// wire the server seam's time is the walstore's and the rest — codec,
	// framing, syscalls, loopback, injected delay — is remote's own.
	var dynamoNs, walNs, remoteNs int64
	switch w.spec.sub {
	case subMemory:
		dynamoNs = tr.coreNs
	case subWAL:
		walNs = tr.coreNs
	case subRemoteWAL:
		walNs, remoteNs = tr.serverNs, tr.coreNs-tr.serverNs
		if remoteNs < 0 {
			return nil, fmt.Errorf("ledger: the server seam shows %d ns, more than the core seam's %d ns around it", tr.serverNs, tr.coreNs)
		}
	}
	var attributed float64
	for _, c := range tr.opCount {
		attributed += float64(c)
	}
	tf := fastest(traced)

	iters := probeIters
	if smoke {
		iters = smokeProbeIters
	}
	noopUs, err := probeInvokeNoop(iters)
	if err != nil {
		return nil, err
	}
	codecUs, codecAllocs, err := probeCodec(iters)
	if err != nil {
		return nil, err
	}
	queueOps, err := probeQueue()
	if err != nil {
		return nil, err
	}

	v := map[string]float64{
		"platform.invocations_per_workflow": per("platform.invocations"),
		"platform.cold_starts":              float64(total["platform.cold_starts"]) / float64(len(timed)),
		"platform.invoke_noop_us":           noopUs,

		"core.reads_per_workflow":              per("core.reads"),
		"core.writes_per_workflow":             per("core.writes"),
		"core.sync_calls_per_workflow":         per("core.sync_calls"),
		"core.async_calls_per_workflow":        per("core.async_calls"),
		"core.awaits_per_workflow":             per("core.awaits"),
		"core.txn_committed_per_workflow":      per("core.txn_committed"),
		"core.txn_aborted_share":               ratio(float64(total["core.txn_aborted"]), float64(total["core.txn_begun"])),
		"core.replays_per_workflow":            per("core.replays"),
		"core.store_ops_per_step":              ratio(float64(total["store.ops"]), steps),
		"core.self_ms_per_workflow":            perTraced(tr.workflowNs - tr.coreNs),
		"core.gc_ms_per_workflow":              ms(tail.gcBusy) / n,
		"core.gc_rows_deleted_per_workflow":    float64(tail.gcCounts["core.gc_rows_deleted"]) / n,
		"core.gc_store_ops_per_workflow":       float64(tail.gcCounts["store.ops"]) / n,
		"core.recover_ms_per_crashed_workflow": ratio(ms(tail.recovery.busy), float64(tail.recovery.crashed)),
		"core.replays_per_crashed_workflow":    ratio(float64(tail.recovery.replays), float64(tail.recovery.crashed)),

		"storage.time_ms_per_workflow":  perTraced(tr.coreNs),
		"storage.op_p50_us":             opP50,
		"storage.get_per_workflow":      ratio(float64(tr.opCount[opGet]), float64(tr.workflows)),
		"storage.query_per_workflow":    ratio(float64(tr.opCount[opQuery]), float64(tr.workflows)),
		"storage.update_per_workflow":   ratio(float64(tr.opCount[opUpdate]), float64(tr.workflows)),
		"storage.transact_per_workflow": ratio(float64(tr.opCount[opTransact]), float64(tr.workflows)),

		"dynamo.time_ms_per_workflow":       perTraced(dynamoNs),
		"dynamo.items_scanned_per_workflow": per("dynamo.items_scanned"),
		"dynamo.cond_failures_per_workflow": per("dynamo.cond_failures"),
		"dynamo.bytes_read_per_workflow":    per("dynamo.bytes_read"),
		"dynamo.bytes_written_per_workflow": per("dynamo.bytes_written"),

		"pipeline.appended_per_workflow": per("pipeline.appended"),
		"pipeline.flushes_per_workflow":  per("pipeline.flushes"),
		"pipeline.rows_per_flush":        ratio(float64(total["pipeline.flushed_rows"]), float64(total["pipeline.flushes"])),
		"pipeline.fence_wait_share":      ratio(float64(total["pipeline.fence_waits"]), float64(total["pipeline.fences"])),

		"remote.rpcs_per_workflow":       per("remote.rpcs"),
		"remote.rpcs_per_step":           ratio(float64(total["remote.rpcs"]), steps),
		"remote.wire_bytes_per_workflow": per("remote.wire_bytes"),
		"remote.retries":                 float64(total["remote.retries"]),
		"remote.rpc_p50_us":              float64(f.rpcP50) / 1e3,
		"remote.self_ms_per_workflow":    perTraced(remoteNs),

		"walstore.records_per_workflow":   per("walstore.records"),
		"walstore.wal_bytes_per_workflow": per("walstore.wal_bytes"),
		"walstore.fsyncs_per_workflow":    per("walstore.fsyncs"),
		"walstore.records_per_fsync":      ratio(float64(total["walstore.batched_records"]), float64(total["walstore.sync_batches"])),
		"walstore.time_ms_per_workflow":   perTraced(walNs),
		"walstore.compact_ms":             ms(tail.compact),
		"walstore.recover_s":              tail.recoverTook.Seconds(),
		"walstore.recovered_records":      float64(tail.recovered),

		"queue.enqueued_per_workflow": per("queue.enqueued"),
		"queue.receives_per_message":  ratio(float64(total["queue.received"]), float64(total["queue.enqueued"])),
		"queue.store_ops_per_message": queueOps,
		"mapper.wakeup_share": ratio(float64(total["mapper.wakeups"]),
			float64(total["mapper.batches"]+total["queue.empty_receives"])),

		"beldi.codec_roundtrip_us": codecUs,
		"beldi.codec_allocs":       codecAllocs,

		"process.cpu_ms_per_workflow":     cpu / workflows,
		"process.gc_cycles_per_kworkflow": gcCycles / workflows * 1000,
		"process.goroutines_peak":         float64(peak),

		"bench.episode_spread":       float64(quantile(elapsed, 0.5)-elapsed[0]) / float64(elapsed[0]),
		"bench.trace_overhead_share": 1 - f.elapsed.Seconds()/tf.elapsed.Seconds(),
		"bench.traced_workflow_ms":   perTraced(tr.workflowNs),
		"bench.background_ops_share": ratio(float64(tr.background), attributed+float64(tr.background)),
		"bench.samples":              n,
	}
	for name, value := range client {
		v[name] = value
	}
	return withUnits(perLayer, v), nil
}
