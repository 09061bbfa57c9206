package repro_test

// testing.B benchmarks, one per table/figure of the paper's evaluation (§7,
// Appendix C) and per substrate experiment, each running the figure's own
// parameter sets (internal/bench) one sub-benchmark per set, as cmd/figures
// runs them. The sets are built with compressed windows and latency scales
// so `go test -bench=. -benchtime 1x .` finishes quickly; cmd/figures
// regenerates the full series with presentation-grade parameters (see
// EXPERIMENTS.md).
//
// The reported custom metrics are the figures' y-values:
// p50-ms / p99-ms for latency figures, tput-req/s for sweeps.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
)

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// benchSets runs one sub-benchmark per parameter set, named prefix + its
// Label (every figure's set type has one), reporting what report reads from
// each measurement.
func benchSets[P, R any](b *testing.B, prefix string, set []P, run func(P) (R, error), report func(*testing.B, R)) {
	for _, p := range set {
		b.Run(prefix+reflect.ValueOf(p).FieldByName("Label").String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := run(p)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkOpLatency regenerates Figure 13 (20-row DAAL) and Figure 25
// (5-row DAAL, Appendix C): read/write/condWrite/invoke latency for baseline
// vs Beldi vs cross-table-txn, one sub-benchmark per bar.
func BenchmarkOpLatency(b *testing.B) {
	for _, fig := range []struct {
		id   string
		rows int
	}{{"13", 20}, {"25", 5}} {
		benchSets(b, fig.id+"/", bench.OpCells(fig.rows, 30, 1), bench.RunOp, func(b *testing.B, r bench.Fig13Row) {
			b.ReportMetric(ms(r.Median), "p50-ms")
			b.ReportMetric(ms(r.P99), "p99-ms")
		})
	}
}

// BenchmarkSweep regenerates one point of every latency-throughput figure,
// per curve: 14 (movie review), 15 (travel reservation, cross-SSF
// transactions), 15b (§7.4: travel without its transaction), 26 (social
// media, Appendix C) and the event-driven order pipeline, whose entry
// latency is the client-visible placement while the pipeline's asynchronous
// edges run in the background.
func BenchmarkSweep(b *testing.B) {
	const window, scale, seed = 600 * time.Millisecond, 0.05, 1
	rates := []float64{200}
	for _, fig := range []struct {
		id     string
		curves []bench.Curve
	}{
		{"14", bench.AppCurves("media", rates, window, scale, seed)},
		{"15", bench.AppCurves("travel", rates, window, scale, seed)},
		{"15b", bench.NoTxnCurves(rates, window, scale, seed)},
		{"26", bench.AppCurves("social", rates, window, scale, seed)},
		{"orders", bench.AppCurves("orders", rates, window, scale, seed)},
	} {
		benchSets(b, fig.id+"/", fig.curves, bench.RunCurve, func(b *testing.B, pts []bench.SweepPoint) {
			b.ReportMetric(pts[0].Throughput, "tput-req/s")
			b.ReportMetric(ms(pts[0].P50), "p50-ms")
			b.ReportMetric(ms(pts[0].P99), "p99-ms")
		})
	}
}

// BenchmarkFig16GCEffect regenerates Figure 16's mechanism at benchmark
// scale: per line, median write latency and DAAL depth in the last of a few
// simulated minutes, with and without garbage collection.
func BenchmarkFig16GCEffect(b *testing.B) {
	benchSets(b, "", bench.GCLines(6, 100*time.Millisecond, 0.02, 1), bench.RunGCLine, func(b *testing.B, s bench.Fig16Series) {
		last := len(s.Median) - 1
		b.ReportMetric(ms(s.Median[last]), "p50-ms")
		b.ReportMetric(float64(s.Rows[last]), "rows")
	})
}

// BenchmarkTraversalAblation measures the §4.1 DAAL traversal strategies per
// depth (full series via `figures -fig ablation`).
func BenchmarkTraversalAblation(b *testing.B) {
	benchSets(b, "", bench.AblationDepths(1), bench.RunDepth, func(b *testing.B, rows []bench.AblationRow) {
		for _, r := range rows {
			b.ReportMetric(r.StoreOps, "store-ops-"+r.Strategy)
			b.ReportMetric(r.BytesRead, "bytes-read-"+r.Strategy)
		}
	})
}

// BenchmarkStepCells runs the five step-commit figures — shard, backend,
// remote, pipeline, latency — one sub-benchmark per cell of each figure's
// set, through the one cell runner (full series via `figures -fig <figure>`).
func BenchmarkStepCells(b *testing.B) {
	const window, scale, seed = 250 * time.Millisecond, 0.02, 1
	for _, set := range [][]bench.Cell{
		bench.ShardCells(window, scale, seed),
		bench.BackendCells(window, seed),
		bench.RemoteCells(window, seed),
		bench.PipelineCells(window, scale, seed),
		bench.LatencyCells(window, seed),
	} {
		benchSets(b, set[0].Figure+"/", set, bench.RunCell, func(b *testing.B, p bench.Point) {
			b.ReportMetric(p.Throughput, "tput-steps/s")
			b.ReportMetric(ms(p.P50), "p50-ms")
			b.ReportMetric(ms(p.P99), "p99-ms")
			// One amortization ratio per layer that batches; 0 where the
			// cell has no such layer.
			b.ReportMetric(p.MeanBatch, "commit-batch")
			b.ReportMetric(p.SyncBatch, "fsync-batch")
			b.ReportMetric(p.PipeBatch, "overlay-batch")
		})
	}
}

// BenchmarkFanoutSweep measures durable-promise fan-out/fan-in throughput
// (awaited worker results per second) versus fan-out width (the fanout
// figure; full series via `figures -fig fanout`). Each sub-benchmark runs
// one (width, mode) cell.
func BenchmarkFanoutSweep(b *testing.B) {
	benchSets(b, "", bench.FanoutCells(250*time.Millisecond, 0.02, 1), bench.RunFanout, func(b *testing.B, p bench.FanoutSweepPoint) {
		b.ReportMetric(p.Throughput, "tput-results/s")
		b.ReportMetric(ms(p.P50), "p50-ms")
	})
}

// BenchmarkCostsAccounting regenerates the §7.3 storage/IO numbers.
func BenchmarkCostsAccounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Costs()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.StoredBytesPerOpBeldi, "stored-B/op-beldi")
		b.ReportMetric(float64(rep.ReadBytesBeldi-rep.ReadBytesBaseline), "extra-read-B")
		b.ReportMetric(rep.StoreOpsPerWriteBeldi, "store-ops/write-beldi")
	}
}

// BenchmarkClusterSweep measures the multi-worker runtime's committed-step
// throughput per pool size over one shared store, with and without a worker
// killed mid-window (the cluster figure; full series via `figures -fig
// cluster`). Each sub-benchmark runs one (workers, kill) cell; kill cells
// include the exactly-once recovery drain.
func BenchmarkClusterSweep(b *testing.B) {
	benchSets(b, "", bench.ClusterCells(250*time.Millisecond, 0.05, 1), bench.RunCluster, func(b *testing.B, p bench.ClusterSweepPoint) {
		b.ReportMetric(p.Throughput, "tput-steps/s")
		b.ReportMetric(float64(p.Stolen), "stolen")
	})
}
