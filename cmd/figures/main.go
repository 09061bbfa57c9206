// Command figures regenerates every table and figure of the paper's
// evaluation (§7, Appendix C) on the simulated substrate and prints the
// series the paper plots.
//
// Usage:
//
//	figures -fig all                 # everything, default parameters
//	figures -fig 13                  # operation latency microbenchmark
//	figures -fig 14 -duration 5s     # movie review latency vs throughput
//	figures -fig 15                  # travel reservation (with transactions)
//	figures -fig 16 -minutes 60      # GC timeout sweep
//	figures -fig 25                  # Fig 13 with a 5-row DAAL (Appendix C)
//	figures -fig 26                  # social media site (Appendix C)
//	figures -fig costs               # §7.3 storage / IO accounting
//	figures -fig 15b                 # §7.4 Beldi-without-transactions ablation
//	figures -fig ablation            # §4.1 DAAL traversal strategy ablation
//	figures -fig queue               # event-queue throughput vs mapper batch size
//	figures -fig orders              # event-driven order pipeline under load
//	figures -fig shard               # store shard-count scaling, group commit on/off
//	figures -fig fanout              # durable-promise fan-out/fan-in scaling
//	figures -fig backend             # storage backends: memory vs durable WAL, fsync batching
//	figures -fig latency             # request p50/p99 per backend and worker count (§7.2 tails) + push-vs-poll trigger latency
//	figures -fig cluster             # multi-worker scaling, with and without a mid-run worker kill
//	figures -fig remote              # wire-protocol storage plane vs in-process, at simulated RTTs
//	figures -fig pipeline            # speculation + pipelined commit: steps/s vs pipeline depth
//
// With -json, every sweep-shaped figure additionally writes its series as
// machine-readable BENCH_<fig>.json into -out (default "."), so CI can
// archive the bench trajectory across commits.
//
// Numbers are simulator-relative; the shapes (ratios, knees, growth trends)
// are the reproduction targets. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/beldi"
	"repro/internal/bench"
)

// jsonDir is the -out directory when -json is set; "" disables emission.
var jsonDir string

// emitJSON writes series as BENCH_<name>.json when -json is on.
func emitJSON(name string, series any) error {
	if jsonDir == "" {
		return nil
	}
	b, err := json.MarshalIndent(series, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(jsonDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(jsonDir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "figures: wrote %s\n", path)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run regenerates the figure(s) -fig names and returns the exit code: 1 when
// a figure fails, 2 for a bad command line — an id that is not in the table
// below included, which used to print nothing and exit 0.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Float64("scale", 0.1, "latency compression factor (1.0 = DynamoDB-like milliseconds)")
		duration = fs.Duration("duration", 3*time.Second, "measurement duration per sweep point")
		minutes  = fs.Int("minutes", 30, "simulated minutes for fig 16")
		minute   = fs.Duration("minute", 300*time.Millisecond, "real time per simulated minute in fig 16")
		rates    = fs.String("rates", "", "comma-separated offered rates for sweeps (default 100..800)")
		seed     = fs.Int64("seed", 1, "random seed")
		ops      = fs.Int("ops", 60, "operations per fig 13/25 cell")
		jsonOut  = fs.Bool("json", false, "also write each sweep as BENCH_<fig>.json (see -out)")
		outDir   = fs.String("out", ".", "directory for -json output files")
		rateList []float64
	)
	figures := []struct {
		id  string
		run func() error
	}{
		{"13", func() error { return runFig13(20, *scale, *seed, *ops, "13") }},
		{"14", func() error { return runSweep("14", "media", rateList, *duration, *scale, *seed) }},
		{"15", func() error { return runSweep("15", "travel", rateList, *duration, *scale, *seed) }},
		{"15b", func() error { return runNoTxnSweep(rateList, *duration, *scale, *seed) }},
		{"16", func() error { return runFig16(*minutes, *minute, *scale, *seed) }},
		{"25", func() error { return runFig13(5, *scale, *seed, *ops, "25") }},
		{"26", func() error { return runSweep("26", "social", rateList, *duration, *scale, *seed) }},
		{"costs", runCosts},
		{"ablation", func() error { return runAblation(*scale, *seed) }},
		{"queue", func() error { return runQueueSweep(*scale, *seed) }},
		{"orders", func() error { return runSweep("orders", "orders", rateList, *duration, *scale, *seed) }},
		{"shard", func() error { return runShardSweep(*duration, *scale, *seed) }},
		{"fanout", func() error { return runFanoutSweep(*duration, *scale, *seed) }},
		{"backend", func() error { return runBackendSweep(*duration, *seed) }},
		{"latency", func() error { return runLatencySweep(*duration, *seed) }},
		{"cluster", func() error { return runClusterSweep(*duration, *scale, *seed) }},
		{"remote", func() error { return runRemoteSweep(*duration, *seed) }},
		{"pipeline", func() error { return runPipelineSweep(*duration, *scale, *seed) }},
	}
	ids := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		ids = append(ids, f.id)
	}
	valid := strings.Join(append(ids, "all"), ", ")
	fig := fs.String("fig", "all", "figure to regenerate: "+valid)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig != "all" && !slices.Contains(ids, *fig) {
		fmt.Fprintf(stderr, "figures: unknown -fig %q; valid ids: %s\n", *fig, valid)
		return 2
	}
	if *jsonOut {
		jsonDir = *outDir
	}
	rateList = parseRates(*rates)
	for _, f := range figures {
		if *fig != "all" && *fig != f.id {
			continue
		}
		if err := f.run(); err != nil {
			fmt.Fprintf(stderr, "figures: fig %s: %v\n", f.id, err)
			return 1
		}
	}
	return 0
}

// runPipelineSweep prints committed steps/s and per-invocation latency
// versus commit-pipeline depth on each substrate — the Netherite speculation
// figure transplanted onto Beldi (see EXPERIMENTS.md, "Speculation & commit
// pipelining"). Depth 1 is the synchronous baseline; deeper cells overlap
// workflow progress with group-committed durability and fence each reply on
// the watermark. -scale compresses the memory substrate's cloud latency;
// the wal and remote cells are disk- and wire-bound.
func runPipelineSweep(duration time.Duration, scale float64, seed int64) error {
	fmt.Println("# Pipeline sweep — committed steps/s vs pipeline depth (depth 1 = synchronous)")
	fmt.Printf("%-10s %-8s %14s %10s %10s %10s %10s %12s %12s\n",
		"backend", "depth", "tput(steps/s)", "invokes", "p50(ms)", "p99(ms)", "flushes", "mean batch", "flush ms")
	pts, err := bench.PipelineSweep(bench.PipelineSweepOptions{
		Backends: []bench.PipelineBackend{bench.PipelineMemory, bench.PipelineWAL, bench.PipelineRemote},
		Duration: duration,
		Scale:    scale,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%-10s %-8d %14.1f %10d %10.2f %10.2f %10d %12.1f %12.1f\n",
			p.Backend, p.Depth, p.Throughput, p.Invokes, ms(p.P50), ms(p.P99),
			p.Flushes, p.MeanBatch, ms(p.ModeledFlushTime))
	}
	fmt.Println()
	return emitJSON("pipeline", pts)
}

// runRemoteSweep prints committed steps/s and request p50/p99 for the same
// closed-loop workload on an in-process walstore versus the same walstore
// behind the internal/remote wire protocol, at several simulated RTTs — the
// framing/pipelining overhead at zero delay, and how per-step round trips
// compound with distance (the paper's DynamoDB regime). Disk- and
// network-bound, so -scale does not apply.
func runRemoteSweep(duration time.Duration, seed int64) error {
	fmt.Println("# Remote sweep — steps/s and latency: in-process walstore vs wire protocol at simulated RTTs")
	fmt.Printf("%-10s %-10s %14s %10s %10s %10s %10s %10s\n",
		"store", "rtt", "tput(steps/s)", "steps", "p50(ms)", "p99(ms)", "rpcs", "rpc p99")
	pts, err := bench.RemoteSweep(bench.RemoteSweepOptions{
		Duration: duration,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	for _, p := range pts {
		kind, rtt, rpcs, rpcP99 := "inproc", "-", "-", "-"
		if p.Remote {
			kind = "remote"
			rtt = p.RTT.String()
			rpcs = fmt.Sprintf("%d", p.RPCs)
			rpcP99 = fmt.Sprintf("%.3f", ms(p.RPCP99))
		}
		fmt.Printf("%-10s %-10s %14.1f %10d %10.2f %10.2f %10s %10s\n",
			kind, rtt, p.Throughput, p.Steps, ms(p.P50), ms(p.P99), rpcs, rpcP99)
	}
	fmt.Println()
	return emitJSON("remote", pts)
}

// runClusterSweep prints committed workflow steps per second versus worker
// count over one shared store, with and without a worker killed at half the
// window — horizontal scaling and the cost of a mid-run death, with
// exactly-once recovery verified before a kill cell reports (the Netherite
// worker-scaling comparison; see EXPERIMENTS.md). -scale compresses the
// simulated store latency that makes the workload latency-bound.
func runClusterSweep(duration time.Duration, scale float64, seed int64) error {
	fmt.Println("# Cluster sweep — committed steps/s vs worker count, with and without a mid-run kill")
	fmt.Printf("%-8s %-8s %14s %10s %8s %8s %10s\n", "workers", "kill", "tput(steps/s)", "steps", "failed", "stolen", "recovered")
	pts, err := bench.ClusterSweep(bench.ClusterSweepOptions{
		Duration: duration,
		Scale:    scale,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	for _, p := range pts {
		killed := "no"
		if p.Killed {
			killed = "mid-run"
		}
		fmt.Printf("%-8d %-8s %14.1f %10d %8d %8d %10d\n",
			p.Workers, killed, p.Throughput, p.Steps, p.Failed, p.Stolen, p.Recovered)
	}
	fmt.Println()
	return emitJSON("cluster", pts)
}

// runLatencySweep prints client-observed p50/p99 request latency per
// backend and worker count — the wrk2-shaped tail figures of §7.2 — next to
// the step-commit and fsync distributions telemetry measures underneath
// them. See EXPERIMENTS.md, "Tail latency".
func runLatencySweep(duration time.Duration, seed int64) error {
	fmt.Println("# Latency sweep — request p50/p99 vs backend and worker count (telemetry histograms)")
	fmt.Printf("%-14s %-8s %12s %10s %10s %10s %10s %10s %11s %11s\n",
		"backend", "workers", "tput(req/s)", "p50(ms)", "p90(ms)", "p99(ms)", "step p50", "step p99", "fsync p50", "fsync p99")
	pts, err := bench.LatencySweep(bench.LatencySweepOptions{
		Duration: duration,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for _, p := range pts {
		fmt.Printf("%-14s %-8d %12.1f %10.3f %10.3f %10.3f %10.3f %10.3f %11.3f %11.3f\n",
			p.Backend, p.Workers, p.Throughput, ms(p.P50), ms(p.P90), ms(p.P99),
			ms(p.StepP50), ms(p.StepP99), ms(p.FsyncP50), ms(p.FsyncP99))
	}
	fmt.Println()

	fmt.Println("# Trigger latency — enqueue→receive on an idle queue, push vs poll")
	fmt.Printf("%-14s %-6s %10s %10s %10s %10s %10s %9s\n",
		"backend", "mode", "interval", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)", "wakeups")
	tpts, err := bench.TriggerLatencySweep(bench.TriggerLatencySweepOptions{Seed: seed})
	if err != nil {
		return err
	}
	for _, p := range tpts {
		fmt.Printf("%-14s %-6s %10s %10.3f %10.3f %10.3f %10.3f %9d\n",
			p.Backend, p.Mode, p.PollInterval, ms(p.P50), ms(p.P90), ms(p.P99), ms(p.Max), p.Wakeups)
	}
	fmt.Println()
	return emitJSON("latency", map[string]any{"request": pts, "trigger": tpts})
}

// runBackendSweep prints committed logged-step throughput for the same
// closed-loop workload on the in-memory backend versus the durable
// WAL-backed store, with fsync group-commit batching on and off — the
// price of real durability and what batching buys back. Disk-bound, so
// -scale does not apply.
func runBackendSweep(duration time.Duration, seed int64) error {
	fmt.Println("# Backend sweep — committed steps/s: memory vs WAL, fsync batching on/off")
	fmt.Printf("%-14s %14s %10s %10s %12s %12s\n", "backend", "tput(steps/s)", "steps", "fsyncs", "mean batch", "wal KiB")
	pts, err := bench.BackendSweep(bench.BackendSweepOptions{
		Duration: duration,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%-14s %14.1f %10d %10d %12.1f %12.1f\n",
			p.Backend, p.Throughput, p.Steps, p.Fsyncs, p.MeanBatch, float64(p.WALBytes)/1024)
	}
	fmt.Println()
	return emitJSON("backend", pts)
}

// runFanoutSweep prints committed promise results per second versus fan-out
// width for the durable path and the in-memory baseline — the price of
// crash-safe fan-out/fan-in.
func runFanoutSweep(duration time.Duration, scale float64, seed int64) error {
	fmt.Println("# Fan-out — durable-promise results/s vs fan-out width, fixed driver population")
	fmt.Printf("%-8s %-10s %14s %12s %10s %10s %10s\n", "width", "mode", "tput(res/s)", "fanins/s", "rounds", "p50(ms)", "p99(ms)")
	pts, err := bench.FanoutSweep(bench.FanoutSweepOptions{
		Duration: duration,
		Scale:    scale,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%-8d %-10s %14.1f %12.1f %10d %10.2f %10.2f\n",
			p.Width, p.Mode, p.Throughput, p.FanInsPerSec, p.FanIns, ms(p.P50), ms(p.P99))
	}
	fmt.Println()
	return emitJSON("fanout", pts)
}

// runShardSweep prints committed logged-step throughput versus the store's
// shard count at a fixed offered load, with the group-commit path off and
// on (the Netherite-style partition-scaling experiment; see EXPERIMENTS.md).
// The global -duration flag is the window per (shards, commit) cell and
// -scale compresses the per-op cloud latency; the flush cost that dominates
// this figure is fixed, so the shapes survive both knobs.
func runShardSweep(duration time.Duration, scale float64, seed int64) error {
	fmt.Println("# Shard sweep — committed steps/s vs store shard count, fixed offered load")
	fmt.Printf("%-8s %-10s %14s %10s %12s %10s\n", "shards", "commit", "tput(steps/s)", "steps", "batches", "mean batch")
	pts, err := bench.ShardSweep(bench.ShardSweepOptions{
		Duration: duration,
		Scale:    scale,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	for _, p := range pts {
		commit := "plain"
		if p.Batched {
			commit = "batched"
		}
		fmt.Printf("%-8d %-10s %14.1f %10d %12d %10.1f\n",
			p.Shards, commit, p.Throughput, p.Steps, p.GroupCommits, p.MeanBatch)
	}
	fmt.Println()
	return emitJSON("shard", pts)
}

// runQueueSweep prints the event-queue subsystem's consume throughput versus
// event-source-mapper batch size.
func runQueueSweep(scale float64, seed int64) error {
	fmt.Println("# Queue — durable event-queue consume throughput vs mapper batch size")
	fmt.Printf("%-8s %12s %10s %12s\n", "batch", "tput(msg/s)", "polls", "elapsed(ms)")
	pts, err := bench.QueueSweep(bench.QueueSweepOptions{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%-8d %12.1f %10d %12.2f\n", p.Batch, p.Throughput, p.Polls, ms(p.Elapsed))
	}
	fmt.Println()
	return emitJSON("queue", pts)
}

// runNoTxnSweep is the §7.4 ablation: the travel site with Beldi's fault
// tolerance but without the reservation transaction (the paper measures a
// 16% lower median and 20% lower p99 at saturation).
func runNoTxnSweep(rates []float64, duration time.Duration, scale float64, seed int64) error {
	fmt.Println("# §7.4 ablation — travel app on Beldi without transactions")
	fmt.Printf("%-14s %8s %10s %10s %10s %8s\n", "config", "offered", "tput", "p50", "p99", "errors")
	for _, app := range []string{"travel", "travel-notxn"} {
		pts, err := bench.Sweep(bench.SweepOptions{
			App: app, Mode: beldi.ModeBeldi, Rates: rates,
			Duration: duration, Scale: scale, Seed: seed,
		})
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("%-14s %8.0f %10.1f %10.2f %10.2f %8d\n",
				app, p.Rate, p.Throughput, ms(p.P50), ms(p.P99), p.Errors+p.Dropped)
		}
	}
	fmt.Println()
	return nil
}

func runAblation(scale float64, seed int64) error {
	fmt.Println("# Ablation — DAAL tail traversal: one query (state projected with the skeleton) vs scan+projection then tail read vs pointer chasing (§4.1)")
	fmt.Printf("%-8s %-15s %12s %12s %12s\n", "depth", "strategy", "median(ms)", "store ops", "bytes read")
	rows, err := bench.TraversalAblation(bench.AblationOptions{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-8d %-15s %12.2f %12.1f %12.0f\n", r.Depth, r.Strategy, ms(r.Median), r.StoreOps, r.BytesRead)
	}
	fmt.Println()
	return nil
}

func parseRates(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: bad rate %q: %v\n", part, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func runFig13(rows int, scale float64, seed int64, ops int, label string) error {
	fmt.Printf("# Figure %s — operation latency (ms), %d-row linked DAAL, 1B keys / 16B values\n", label, rows)
	fmt.Printf("%-10s %-24s %10s %10s\n", "op", "mode", "median", "p99")
	res, err := bench.Fig13(bench.Fig13Options{
		DAALRows: rows, Scale: scale, Seed: seed, Ops: ops,
	})
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("%-10s %-24s %10.2f %10.2f\n", r.Op, bench.ModeLabel(r.Mode), ms(r.Median), ms(r.P99))
	}
	fmt.Println()
	return nil
}

func runSweep(label, app string, rates []float64, duration time.Duration, scale float64, seed int64) error {
	fmt.Printf("# Figure %s — %s app: response time (ms) vs throughput (req/s)\n", label, app)
	fmt.Printf("%-10s %8s %10s %10s %10s %8s\n", "mode", "offered", "tput", "p50", "p99", "errors")
	type modeSeries struct {
		Mode   string
		Points []bench.SweepPoint
	}
	var series []modeSeries
	for _, mode := range []beldi.Mode{beldi.ModeBaseline, beldi.ModeBeldi} {
		pts, err := bench.Sweep(bench.SweepOptions{
			App: app, Mode: mode, Rates: rates,
			Duration: duration, Scale: scale, Seed: seed,
		})
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("%-10s %8.0f %10.1f %10.2f %10.2f %8d\n",
				bench.ModeLabel(mode), p.Rate, p.Throughput, ms(p.P50), ms(p.P99), p.Errors+p.Dropped)
		}
		series = append(series, modeSeries{Mode: bench.ModeLabel(mode), Points: pts})
	}
	fmt.Println()
	return emitJSON(label, series)
}

func runFig16(minutes int, minuteDur time.Duration, scale float64, seed int64) error {
	fmt.Printf("# Figure 16 — single-write SSF median latency (ms) over %d simulated minutes\n", minutes)
	series, err := bench.Fig16(bench.Fig16Options{
		Minutes: minutes, MinuteDuration: minuteDur, Scale: scale, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s", "minute")
	for _, s := range series {
		fmt.Printf(" %18s", s.Label)
	}
	fmt.Println()
	for m := 0; m < minutes; m++ {
		fmt.Printf("%-8d", m+1)
		for _, s := range series {
			fmt.Printf(" %18.2f", ms(s.Median[m]))
		}
		fmt.Println()
	}
	fmt.Printf("%-8s", "rows@end")
	for _, s := range series {
		fmt.Printf(" %18d", s.Rows[len(s.Rows)-1])
	}
	fmt.Println()
	fmt.Printf("%-8s", "bytes@end")
	for _, s := range series {
		fmt.Printf(" %18d", s.Bytes[len(s.Bytes)-1])
	}
	fmt.Println()
	fmt.Println()
	return nil
}

func runCosts() error {
	rep, err := bench.Costs(0)
	if err != nil {
		return err
	}
	fmt.Println("# §7.3 'Other costs' — storage and IO accounting")
	fmt.Printf("stored bytes per op beyond the value:  beldi=%.1f  baseline=%.1f\n",
		rep.StoredBytesPerOpBeldi, rep.StoredBytesPerOpBaseline)
	fmt.Printf("response bytes per read (20-row DAAL): beldi=%d  baseline=%d  (extra=%d)\n",
		rep.ReadBytesBeldi, rep.ReadBytesBaseline, rep.ReadBytesBeldi-rep.ReadBytesBaseline)
	fmt.Printf("store round trips per read:            beldi=%.1f  baseline=%.1f\n",
		rep.StoreOpsPerReadBeldi, rep.StoreOpsPerReadBaseline)
	fmt.Printf("store round trips per write:           beldi=%.1f  baseline=%.1f\n",
		rep.StoreOpsPerWriteBeldi, rep.StoreOpsPerWriteBaseline)
	fmt.Printf("store round trips per invoke:          beldi=%.1f  baseline=%.1f\n",
		rep.StoreOpsPerInvokeBeldi, rep.StoreOpsPerInvokeBaseline)
	fmt.Printf("20-row DAAL footprint:                 %d bytes\n", rep.DAALBytes20Rows)
	fmt.Printf("round trips per read, k reads/instance:")
	for _, r := range rep.OpsPerReadAtK {
		fmt.Printf("  k=%d: %.2f", r.K, r.OpsPerRead)
	}
	fmt.Println("  (one flush per batch: (k+1)/k)")
	fmt.Printf("round trips per sync invoke, k-read callee:")
	for _, r := range rep.OpsPerCallAtK {
		fmt.Printf("  k=%d: %.0f effect-free / %.0f ending in a write", r.K, r.EffectFree, r.Writes)
	}
	fmt.Println("  (2+k: no intent row without an effect; 6+k, +1 flush when k ≥ 1)")
	fmt.Println()
	return nil
}
