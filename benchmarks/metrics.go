package main

import "slices"

// metricDef names one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json repeats them (a test keeps the two in step) and
// every later performance or simplicity change is judged by these names.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees and this benchmark
// gates; the same names on every workload. Counts are sums over all timed
// episodes. The share of failed workflows is not a metric here because a
// gated metric must never be 0: it is the "failed"/"attempted" pair of the
// result line, and any failure makes the run incorrect.
//
// No wall-clock metric of the workflows is in this list. Throughput and
// client latency were specified as end-to-end metrics together with the
// rule that a timing metric which cannot hold its bound is moved to the
// per-layer list rather than given a wider one. On this shared 2-vCPU box
// the same commit and seed gave 437, 359, 353, 393, 409 and 434 workflows/s
// on travel-remote-wal in six consecutive runs, and over ten seeds the
// quartile spread of its throughput was 33 % and of its median latency 36 %,
// beyond the 25 % a bound may be (README, "Machine rules"). They are
// therefore reported with every run as bench.workflows_per_s,
// bench.workflow_p50_ms and bench.workflow_p95_ms, and the counts, which
// repeat exactly for one seed and to a few hundredths of a percent across
// seeds, carry the gates.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_workflow", "count", "lower", 0.02},
	{"alloc_kb_per_workflow", "kB", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"store_ops_per_workflow", "count", "lower", 0.02},
	{"stored_bytes_per_workflow", "bytes", "lower", 0.05},
}

// perLayer are the metrics of single layers (layer = module name). They
// have no bound: they explain a movement of an end-to-end metric, they do
// not gate. A layer that is not in a workload's path reports 0.
var perLayer = []metricDef{
	{"platform.invocations_per_workflow", "count", "lower", 0},
	{"platform.cold_starts", "count", "lower", 0},
	{"platform.invoke_noop_us", "us", "lower", 0},

	{"core.reads_per_workflow", "count", "lower", 0},
	{"core.writes_per_workflow", "count", "lower", 0},
	{"core.sync_calls_per_workflow", "count", "lower", 0},
	{"core.async_calls_per_workflow", "count", "lower", 0},
	{"core.awaits_per_workflow", "count", "lower", 0},
	{"core.txn_committed_per_workflow", "count", "higher", 0},
	{"core.txn_aborted_share", "ratio", "lower", 0},
	{"core.replays_per_workflow", "count", "lower", 0},
	{"core.store_ops_per_step", "count", "lower", 0},
	{"core.self_ms_per_workflow", "ms", "lower", 0},
	{"core.gc_ms_per_workflow", "ms", "lower", 0},
	{"core.gc_rows_deleted_per_workflow", "count", "higher", 0},
	{"core.gc_store_ops_per_workflow", "count", "lower", 0},
	{"core.recover_ms_per_crashed_workflow", "ms", "lower", 0},
	{"core.replays_per_crashed_workflow", "count", "lower", 0},

	{"storage.time_ms_per_workflow", "ms", "lower", 0},
	{"storage.op_p50_us", "us", "lower", 0},
	{"storage.get_per_workflow", "count", "lower", 0},
	{"storage.query_per_workflow", "count", "lower", 0},
	{"storage.update_per_workflow", "count", "lower", 0},
	{"storage.transact_per_workflow", "count", "lower", 0},

	{"dynamo.time_ms_per_workflow", "ms", "lower", 0},
	{"dynamo.items_scanned_per_workflow", "count", "lower", 0},
	{"dynamo.cond_failures_per_workflow", "count", "lower", 0},
	{"dynamo.bytes_read_per_workflow", "bytes", "lower", 0},
	{"dynamo.bytes_written_per_workflow", "bytes", "lower", 0},

	{"pipeline.appended_per_workflow", "count", "lower", 0},
	{"pipeline.flushes_per_workflow", "count", "lower", 0},
	{"pipeline.rows_per_flush", "count", "higher", 0},
	{"pipeline.fence_wait_share", "ratio", "lower", 0},

	{"remote.rpcs_per_workflow", "count", "lower", 0},
	{"remote.rpcs_per_step", "count", "lower", 0},
	{"remote.wire_bytes_per_workflow", "bytes", "lower", 0},
	{"remote.retries", "count", "lower", 0},
	{"remote.rpc_p50_us", "us", "lower", 0},
	{"remote.self_ms_per_workflow", "ms", "lower", 0},

	{"walstore.records_per_workflow", "count", "lower", 0},
	{"walstore.wal_bytes_per_workflow", "bytes", "lower", 0},
	{"walstore.fsyncs_per_workflow", "count", "lower", 0},
	{"walstore.records_per_fsync", "count", "higher", 0},
	{"walstore.time_ms_per_workflow", "ms", "lower", 0},
	{"walstore.compact_ms", "ms", "lower", 0},
	{"walstore.recover_s", "s", "lower", 0},
	{"walstore.recovered_records", "count", "lower", 0},

	{"queue.enqueued_per_workflow", "count", "lower", 0},
	{"queue.receives_per_message", "ratio", "lower", 0},
	{"queue.store_ops_per_message", "count", "lower", 0},
	{"mapper.wakeup_share", "ratio", "higher", 0},

	{"beldi.codec_roundtrip_us", "us", "lower", 0},
	{"beldi.codec_allocs", "count", "lower", 0},

	{"process.cpu_ms_per_workflow", "ms", "lower", 0},
	{"process.gc_cycles_per_kworkflow", "count", "lower", 0},
	{"process.goroutines_peak", "count", "lower", 0},

	{"bench.workflows_per_s", "1/s", "higher", 0},
	{"bench.workflow_p50_ms", "ms", "lower", 0},
	{"bench.workflow_p95_ms", "ms", "lower", 0},
	{"bench.episode_spread", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.traced_workflow_ms", "ms", "lower", 0},
	{"bench.background_ops_share", "ratio", "lower", 0},
	{"bench.samples", "count", "higher", 0},
}

// clientTimings are the per-layer metrics taken at the client; every run
// reports them.
var clientTimings = perLayerDefs("bench.workflows_per_s", "bench.workflow_p50_ms", "bench.workflow_p95_ms")

func perLayerDefs(names ...string) []metricDef {
	defs := make([]metricDef, len(names))
	for i, name := range names {
		j := slices.IndexFunc(perLayer, func(d metricDef) bool { return d.name == name })
		defs[i] = perLayer[j]
	}
	return defs
}

// countMetrics are the end-to-end metrics that are pure functions of the
// input on the single-path workloads: same seed, same value, bit for bit.
var countMetrics = []string{"store_ops_per_workflow", "stored_bytes_per_workflow"}
