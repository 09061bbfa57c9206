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
//	figures -fig counts              # store ops per table, bytes, WAL records, fsyncs, RPCs per workflow (costs.golden)
//	figures -fig 15b                 # §7.4 Beldi-without-transactions ablation
//	figures -fig ablation            # §4.1 DAAL traversal strategy ablation
//	figures -fig orders              # event-driven order pipeline under load
//	figures -fig shard               # store shard-count scaling, group commit on/off
//	figures -fig fanout              # durable-promise fan-out/fan-in scaling
//	figures -fig backend             # storage backends: memory vs durable WAL, fsync batching
//	figures -fig latency             # request p50/p99 per backend and worker count (§7.2 tails)
//	figures -fig cluster             # multi-worker scaling, with and without a mid-run worker kill
//	figures -fig remote              # wire-protocol storage plane vs in-process, at simulated RTTs
//	figures -fig pipeline            # speculation + pipelined commit: steps/s vs pipeline depth
//
// With -json, every sweep-shaped figure additionally writes its series as
// machine-readable BENCH_<fig>.json into -out (default "."), so CI can
// archive the bench trajectory across commits. The shard, backend, remote,
// pipeline and latency figures are parameter sets of one cell runner and
// share one shape, []bench.Point. -fig counts writes its rows as
// BENCH_counts.json; the copy committed at the repository root is the count
// trajectory, and internal/bench's TestCountsGolden keeps it equal to
// testdata/costs.golden.
//
// Numbers are simulator-relative; the shapes (ratios, knees, growth trends)
// are the reproduction targets. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

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
// below, or a flag value no figure can run with, included.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Float64("scale", 0.1, "latency compression factor (1.0 = DynamoDB-like milliseconds); figs 13, 25, ablation and costs ignore it: they run on modeled time at 1.0")
		duration = fs.Duration("duration", 3*time.Second, "measurement duration per sweep point")
		minutes  = fs.Int("minutes", 30, "simulated minutes for fig 16")
		minute   = fs.Duration("minute", 300*time.Millisecond, "real time per simulated minute in fig 16")
		rates    = fs.String("rates", "100,200,300,400,500,600,700,800", "comma-separated offered rates (req/s) for the latency-throughput sweeps")
		seed     = fs.Int64("seed", 1, "random seed")
		ops      = fs.Int("ops", 60, "operations per fig 13/25 cell")
		jsonOut  = fs.Bool("json", false, "also write each sweep as BENCH_<fig>.json (see -out)")
		outDir   = fs.String("out", ".", "directory for -json output files")
		rateList []float64
	)
	curves := func(id, app string) func() error {
		return func() error {
			return runCurves(id, fmt.Sprintf("# Figure %s — %s app: response time (ms) vs throughput (req/s)", id, app),
				"mode", -10, bench.AppCurves(app, rateList, *duration, *scale, *seed))
		}
	}
	figures := []struct {
		id  string
		run func() error
	}{
		{"13", func() error { return runOps("13", bench.OpCells(20, *ops, *seed)) }},
		{"14", curves("14", "media")},
		{"15", curves("15", "travel")},
		{"15b", func() error {
			return runCurves("15b", "# §7.4 ablation — travel app on Beldi without transactions", "config", -14,
				bench.NoTxnCurves(rateList, *duration, *scale, *seed))
		}},
		{"16", func() error { return runFig16(bench.GCLines(*minutes, *minute, *scale, *seed)) }},
		{"25", func() error { return runOps("25", bench.OpCells(5, *ops, *seed)) }},
		{"26", curves("26", "social")},
		{"costs", runCosts},
		{"counts", func() error { return runCounts(bench.CountSets(*seed)) }},
		{"ablation", func() error { return runAblation(bench.AblationDepths(*seed)) }},
		{"orders", curves("orders", "orders")},
		{"shard", func() error { return runCells(shardTable, bench.ShardCells(*duration, *scale, *seed)) }},
		{"fanout", func() error { return runFanoutSweep(bench.FanoutCells(*duration, *scale, *seed)) }},
		{"backend", func() error { return runCells(backendTable, bench.BackendCells(*duration, *seed)) }},
		{"latency", func() error { return runCells(latencyTable, bench.LatencyCells(*duration, *seed)) }},
		{"cluster", func() error { return runClusterSweep(bench.ClusterCells(*duration, *scale, *seed)) }},
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
	for _, f := range []struct {
		name string
		ok   bool
	}{
		{"duration", *duration > 0}, {"minutes", *minutes > 0}, {"minute", *minute > 0}, {"ops", *ops > 0},
	} {
		if !f.ok {
			fmt.Fprintf(stderr, "figures: -%s must be positive, not %s\n", f.name, fs.Lookup(f.name).Value)
			return 2
		}
	}
	if *scale < 0 {
		fmt.Fprintf(stderr, "figures: -scale must not be negative, not %v\n", *scale)
		return 2
	}
	var err error
	if rateList, err = parseRates(*rates); err != nil {
		fmt.Fprintf(stderr, "figures: -rates: %v\n", err)
		return 2
	}
	if *jsonOut {
		jsonDir = *outDir
	}
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
	// Client-observed p50/p99 per backend and worker count — the wrk2-shaped
	// tail figures of §7.2 — next to the step-commit and fsync distributions
	// telemetry measures underneath them. See EXPERIMENTS.md, "Tail latency".
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

// runSet prints a figure: its title and header, then one row per parameter
// set as bench.RunAll measures them, and BENCH_<name>.json unless name is "".
func runSet[P, R any](name, title, header string, set []P, run func(P) (R, error), row func(R)) error {
	fmt.Println(title)
	fmt.Println(header)
	res, err := bench.RunAll(set, run)
	if err != nil {
		return err
	}
	for _, r := range res {
		row(r)
	}
	fmt.Println()
	if name == "" {
		return nil
	}
	return emitJSON(name, res)
}

// runCells prints a step-commit figure: the table's title and header, then
// one row per cell, and BENCH_<figure>.json.
func runCells(t table, cells []bench.Cell) error {
	line := func(text func(column) string) string {
		parts := make([]string, len(t.cols))
		for i, c := range t.cols {
			parts[i] = fmt.Sprintf("%*s", c.width, text(c))
		}
		return strings.Join(parts, " ")
	}
	return runSet(cells[0].Figure, t.title, line(func(c column) string { return c.head }), cells, bench.RunCell, func(p bench.Point) {
		fmt.Println(line(func(c column) string { return c.text(p) }))
	})
}

// runClusterSweep prints committed workflow steps per second versus worker
// count over one shared store, with and without a worker killed at half the
// window — horizontal scaling and the cost of a mid-run death, with
// exactly-once recovery verified before a kill cell reports (the Netherite
// worker-scaling comparison; see EXPERIMENTS.md). -scale compresses the
// simulated store latency that makes the workload latency-bound.
func runClusterSweep(cells []bench.ClusterCell) error {
	return runSet("cluster", "# Cluster sweep — committed steps/s vs worker count, with and without a mid-run kill",
		fmt.Sprintf("%-8s %-8s %14s %10s %8s %8s %10s", "workers", "kill", "tput(steps/s)", "steps", "failed", "stolen", "recovered"),
		cells, bench.RunCluster, func(p bench.ClusterSweepPoint) {
			fmt.Printf("%-8d %-8s %14.1f %10d %8d %8d %10d\n",
				p.Workers, pick(p.Killed, "mid-run", "no"), p.Throughput, p.Steps, p.Failed, p.Stolen, p.Recovered)
		})
}

// runFanoutSweep prints committed promise results per second versus fan-out
// width for the durable path and the in-memory baseline — the price of
// crash-safe fan-out/fan-in.
func runFanoutSweep(cells []bench.FanoutCell) error {
	return runSet("fanout", "# Fan-out — durable-promise results/s vs fan-out width, fixed driver population",
		fmt.Sprintf("%-8s %-10s %14s %12s %10s %10s %10s", "width", "mode", "tput(res/s)", "fanins/s", "rounds", "p50(ms)", "p99(ms)"),
		cells, bench.RunFanout, func(p bench.FanoutSweepPoint) {
			fmt.Printf("%-8d %-10s %14.1f %12.1f %10d %10.2f %10.2f\n",
				p.Width, p.Mode, p.Throughput, p.FanInsPerSec, p.FanIns, ms(p.P50), ms(p.P99))
		})
}

func runAblation(depths []bench.AblationDepth) error {
	return runSet("", "# Ablation — DAAL tail traversal: one query (state projected with the skeleton) vs scan+projection then tail read vs pointer chasing (§4.1)",
		fmt.Sprintf("%-8s %-15s %12s %12s %12s", "depth", "strategy", "median(ms)", "store ops", "bytes read"),
		depths, bench.RunDepth, func(rows []bench.AblationRow) {
			for _, r := range rows {
				fmt.Printf("%-8d %-15s %12.2f %12.1f %12.0f\n", r.Depth, r.Strategy, ms(r.Median), r.StoreOps, r.BytesRead)
			}
		})
}

// parseRates reads -rates: one or more positive offered loads.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad rate %q: want a positive number of requests per second", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runOps(id string, cells []bench.OpCell) error {
	return runSet("", fmt.Sprintf("# Figure %s — operation latency (ms), %d-row linked DAAL, 1B keys / 16B values", id, cells[0].DAALRows),
		fmt.Sprintf("%-10s %-24s %10s %10s", "op", "mode", "median", "p99"),
		cells, bench.RunOp, func(r bench.Fig13Row) {
			fmt.Printf("%-10s %-24s %10.2f %10.2f\n", r.Op, bench.ModeLabel(r.Mode), ms(r.Median), ms(r.P99))
		})
}

// runCurves prints a latency-throughput figure (14, 15, 15b, 26, orders): one
// row per (curve, rate) under the label column (head, width), and writes the
// series as BENCH_<id>.json.
func runCurves(id, title, head string, width int, curves []bench.Curve) error {
	type series struct {
		Mode   string
		Points []bench.SweepPoint
	}
	return runSet(id, title, fmt.Sprintf("%*s %8s %10s %10s %10s %8s", width, head, "offered", "tput", "p50", "p99", "errors"),
		curves, func(c bench.Curve) (series, error) {
			pts, err := bench.RunCurve(c)
			return series{c.Label, pts}, err
		}, func(s series) {
			for _, p := range s.Points {
				fmt.Printf("%*s %8.0f %10.1f %10.2f %10.2f %8d\n",
					width, s.Mode, p.Rate, p.Throughput, ms(p.P50), ms(p.P99), p.Errors+p.Dropped)
			}
		})
}

func runFig16(lines []bench.GCLine) error {
	minutes := lines[0].Minutes
	fmt.Printf("# Figure 16 — single-write SSF median latency (ms) over %d simulated minutes\n", minutes)
	series, err := bench.RunAll(lines, bench.RunGCLine)
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

func runCounts(sets []bench.CountSet) error {
	rows, err := bench.RunAll(sets, bench.RunCount)
	if err != nil {
		return err
	}
	fmt.Println("# Counts per workflow — store ops by table and kind, stored bytes, WAL records, fsyncs, RPCs; the collection apart")
	fmt.Print(bench.FormatCounts(rows))
	fmt.Println()
	return emitJSON("counts", rows)
}

func runCosts() error {
	rep, err := bench.Costs()
	if err != nil {
		return err
	}
	fmt.Println("# §7.3 'Other costs' — storage and IO accounting")
	fmt.Printf("stored bytes per write:                beldi=%.1f  baseline=%.1f  (beldi beyond the value it logs; baseline overwrites in place)\n",
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
