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
// archive the bench trajectory across commits. The shard, backend, remote,
// pipeline and latency figures are parameter sets of one cell runner and
// share one shape, []bench.Point; -fig latency writes its trigger table as
// BENCH_trigger.json.
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
		{"shard", func() error { return runCells(shardTable, bench.ShardCells(*duration, *scale, *seed)) }},
		{"fanout", func() error { return runFanoutSweep(*duration, *scale, *seed) }},
		{"backend", func() error { return runCells(backendTable, bench.BackendCells(*duration, *seed)) }},
		{"latency", func() error { return runLatency(*duration, *seed) }},
		{"cluster", func() error { return runClusterSweep(*duration, *scale, *seed) }},
		{"remote", func() error { return runCells(remoteTable, bench.RemoteCells(*duration, *seed)) }},
		{"pipeline", func() error { return runCells(pipelineTable, bench.PipelineCells(*duration, *scale, *seed)) }},
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

// table is how one step-commit figure prints its points: a title line and a
// column list. Every such figure is a []bench.Cell measured by the one cell
// runner; only the columns differ.
type table struct {
	title string
	cols  []column
}

// column is one printed column: its header, its width (negative left-aligns)
// and the cell text for a point.
type column struct {
	head  string
	width int
	text  func(bench.Point) string
}

// col is a column printing one value of the point through a fmt verb.
func col[T any](head string, width int, verb string, val func(bench.Point) T) column {
	return column{head, width, func(p bench.Point) string { return fmt.Sprintf(verb, val(p)) }}
}

// wireOnly blanks a column on cells that do not cross the wire.
func wireOnly(c column) column {
	text := c.text
	c.text = func(p bench.Point) string {
		if !p.Wire {
			return "-"
		}
		return text(p)
	}
	return c
}

var (
	// Columns more than one figure prints.
	tput  = col("tput(steps/s)", 14, "%.1f", func(p bench.Point) float64 { return p.Throughput })
	steps = col("steps", 10, "%d", func(p bench.Point) int64 { return p.Steps })
	p50   = col("p50(ms)", 10, "%.2f", func(p bench.Point) float64 { return ms(p.P50) })
	p99   = col("p99(ms)", 10, "%.2f", func(p bench.Point) float64 { return ms(p.P99) })

	// The window is per cell (-duration); -scale compresses the per-op cloud
	// latency, but the flush cost that dominates this figure is fixed, so the
	// shapes survive both knobs.
	shardTable = table{"# Shard sweep — committed steps/s vs store shard count, fixed offered load", []column{
		col("shards", -8, "%d", func(p bench.Point) int { return p.Shards }),
		col("commit", -10, "%s", func(p bench.Point) string { return pick(p.GroupCommit, "batched", "plain") }),
		tput,
		steps,
		col("batches", 12, "%d", func(p bench.Point) int64 { return p.GroupCommits }),
		col("mean batch", 10, "%.1f", func(p bench.Point) float64 { return p.MeanBatch }),
	}}
	// Disk-bound, so -scale does not apply.
	backendTable = table{"# Backend sweep — committed steps/s: memory vs WAL, fsync batching on/off", []column{
		col("backend", -14, "%s", func(p bench.Point) bench.BackendKind { return p.Backend }),
		tput,
		steps,
		col("fsyncs", 10, "%d", func(p bench.Point) int64 { return p.Fsyncs }),
		col("mean batch", 12, "%.1f", func(p bench.Point) float64 { return p.SyncBatch }),
		col("wal KiB", 12, "%.1f", func(p bench.Point) float64 { return float64(p.WALBytes) / 1024 }),
	}}
	// Disk- and network-bound, so -scale does not apply.
	remoteTable = table{"# Remote sweep — steps/s and latency: in-process walstore vs wire protocol at simulated RTTs", []column{
		col("store", -10, "%s", func(p bench.Point) string { return pick(p.Wire, "remote", "inproc") }),
		wireOnly(col("rtt", -10, "%v", func(p bench.Point) time.Duration { return p.RTT })),
		tput,
		steps,
		p50,
		p99,
		wireOnly(col("rpcs", 10, "%d", func(p bench.Point) int64 { return p.RPCs })),
		wireOnly(col("rpc p99", 10, "%.3f", func(p bench.Point) float64 { return ms(p.RPCP99) })),
	}}
	// -scale compresses the memory substrate's cloud latency; the wal and
	// remote cells are disk- and wire-bound.
	pipelineTable = table{"# Pipeline sweep — committed steps/s vs pipeline depth (depth 1 = synchronous)", []column{
		col("backend", -10, "%s", substrate),
		col("depth", -8, "%d", func(p bench.Point) int { return p.Depth }),
		tput,
		col("invokes", 10, "%d", func(p bench.Point) int64 { return p.Invokes }),
		p50,
		p99,
		col("flushes", 10, "%d", func(p bench.Point) int64 { return p.PipeFlushes }),
		col("mean batch", 12, "%.1f", func(p bench.Point) float64 { return p.PipeBatch }),
		col("flush ms", 12, "%.1f", func(p bench.Point) float64 { return ms(p.ModeledFlushTime) }),
	}}
	latencyTable = table{"# Latency sweep — request p50/p99 vs backend and worker count (telemetry histograms)", []column{
		col("backend", -14, "%s", func(p bench.Point) bench.BackendKind { return p.Backend }),
		col("workers", -8, "%d", func(p bench.Point) int { return p.Workers }),
		col("tput(req/s)", 12, "%.1f", func(p bench.Point) float64 { return p.Throughput }),
		col("p50(ms)", 10, "%.3f", func(p bench.Point) float64 { return ms(p.P50) }),
		col("p90(ms)", 10, "%.3f", func(p bench.Point) float64 { return ms(p.P90) }),
		col("p99(ms)", 10, "%.3f", func(p bench.Point) float64 { return ms(p.P99) }),
		col("step p50", 10, "%.3f", func(p bench.Point) float64 { return ms(p.StepP50) }),
		col("step p99", 10, "%.3f", func(p bench.Point) float64 { return ms(p.StepP99) }),
		col("fsync p50", 11, "%.3f", func(p bench.Point) float64 { return ms(p.FsyncP50) }),
		col("fsync p99", 11, "%.3f", func(p bench.Point) float64 { return ms(p.FsyncP99) }),
	}}
)

// pick is yes when on, no otherwise.
func pick(on bool, yes, no string) string {
	if on {
		return yes
	}
	return no
}

// substrate names a pipeline cell's storage substrate the way the figure does.
func substrate(p bench.Point) string {
	return pick(p.Wire, "remote", pick(p.Backend == bench.BackendMemory, "memory", "wal"))
}

// runCells prints a step-commit figure: the table's title and header, then
// one row per cell as bench.RunCells measures it, and BENCH_<figure>.json.
func runCells(t table, cells []bench.Cell) error {
	fmt.Println(t.title)
	row := func(text func(column) string) {
		parts := make([]string, len(t.cols))
		for i, c := range t.cols {
			parts[i] = fmt.Sprintf("%*s", c.width, text(c))
		}
		fmt.Println(strings.Join(parts, " "))
	}
	row(func(c column) string { return c.head })
	pts, err := bench.RunCells(cells)
	if err != nil {
		return err
	}
	for _, p := range pts {
		row(func(c column) string { return c.text(p) })
	}
	fmt.Println()
	return emitJSON(cells[0].Figure, pts)
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

// runLatency prints client-observed p50/p99 request latency per backend and
// worker count — the wrk2-shaped tail figures of §7.2 — next to the
// step-commit and fsync distributions telemetry measures underneath them,
// then the push-vs-poll trigger latency table (BENCH_trigger.json). See
// EXPERIMENTS.md, "Tail latency".
func runLatency(duration time.Duration, seed int64) error {
	if err := runCells(latencyTable, bench.LatencyCells(duration, seed)); err != nil {
		return err
	}
	fmt.Println("# Trigger latency — enqueue→receive on an idle queue, push vs poll")
	fmt.Printf("%-14s %-6s %10s %10s %10s %10s %10s %9s\n",
		"backend", "mode", "interval", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)", "wakeups")
	tpts, err := bench.TriggerLatencySweep(bench.TriggerLatencySweepOptions{Seed: seed})
	if err != nil {
		return err
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for _, p := range tpts {
		fmt.Printf("%-14s %-6s %10s %10.3f %10.3f %10.3f %10.3f %9d\n",
			p.Backend, p.Mode, p.PollInterval, ms(p.P50), ms(p.P90), ms(p.P99), ms(p.Max), p.Wakeups)
	}
	fmt.Println()
	return emitJSON("trigger", tpts)
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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

// curve is one series of a latency-throughput figure: its row label, and the
// app and mode it sweeps.
type curve struct {
	label, app string
	mode       beldi.Mode
}

// runSweep prints Figures 14/15/26/orders: one app, baseline against Beldi.
func runSweep(id, app string, rates []float64, duration time.Duration, scale float64, seed int64) error {
	title := fmt.Sprintf("# Figure %s — %s app: response time (ms) vs throughput (req/s)", id, app)
	return runCurves(id, title, "mode", -10, []curve{
		{bench.ModeLabel(beldi.ModeBaseline), app, beldi.ModeBaseline},
		{bench.ModeLabel(beldi.ModeBeldi), app, beldi.ModeBeldi},
	}, rates, duration, scale, seed)
}

// runNoTxnSweep is the §7.4 ablation: the travel site with Beldi's fault
// tolerance but without the reservation transaction (the paper measures a
// 16% lower median and 20% lower p99 at saturation).
func runNoTxnSweep(rates []float64, duration time.Duration, scale float64, seed int64) error {
	return runCurves("15b", "# §7.4 ablation — travel app on Beldi without transactions", "config", -14, []curve{
		{"travel", "travel", beldi.ModeBeldi},
		{"travel-notxn", "travel-notxn", beldi.ModeBeldi},
	}, rates, duration, scale, seed)
}

// runCurves sweeps each curve over the offered rates, prints one row per
// (curve, rate) under the label column (head, width) and writes the series as
// BENCH_<id>.json.
func runCurves(id, title, head string, width int, curves []curve, rates []float64, duration time.Duration, scale float64, seed int64) error {
	fmt.Println(title)
	fmt.Printf("%*s %8s %10s %10s %10s %8s\n", width, head, "offered", "tput", "p50", "p99", "errors")
	type series struct {
		Mode   string
		Points []bench.SweepPoint
	}
	var out []series
	for _, c := range curves {
		pts, err := bench.Sweep(bench.SweepOptions{
			App: c.app, Mode: c.mode, Rates: rates,
			Duration: duration, Scale: scale, Seed: seed,
		})
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("%*s %8.0f %10.1f %10.2f %10.2f %8d\n",
				width, c.label, p.Rate, p.Throughput, ms(p.P50), ms(p.P99), p.Errors+p.Dropped)
		}
		out = append(out, series{Mode: c.label, Points: pts})
	}
	fmt.Println()
	return emitJSON(id, out)
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
