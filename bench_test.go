package repro_test

// testing.B benchmarks, one per table/figure of the paper's evaluation (§7,
// Appendix C), built on the same harness as cmd/figures. Benchmarks run
// with compressed latency scales so `go test -bench=.` finishes quickly;
// cmd/figures regenerates the full series with presentation-grade
// parameters (see EXPERIMENTS.md).
//
// The reported custom metrics are the figures' y-values:
// p50-ms / p99-ms for latency figures, tput-req/s for sweeps.

import (
	"fmt"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/bench"
)

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// benchFig13 runs one Figure 13/25 cell per benchmark iteration batch.
func benchFig13(b *testing.B, rows int) {
	b.Helper()
	res, err := bench.Fig13(bench.Fig13Options{
		DAALRows: rows,
		Ops:      30,
		Scale:    0.02,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res {
		b.ReportMetric(ms(r.Median), fmt.Sprintf("p50-ms-%s-%s", r.Op, r.Mode))
	}
}

// BenchmarkFig13OpLatency regenerates Figure 13: read/write/condWrite/invoke
// latency for baseline vs Beldi vs cross-table-txn on a 20-row DAAL.
func BenchmarkFig13OpLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig13(b, 20)
	}
}

// BenchmarkFig25OpLatencyShallowDAAL regenerates Figure 25 (Appendix C):
// the same microbenchmark with a 5-row DAAL.
func BenchmarkFig25OpLatencyShallowDAAL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig13(b, 5)
	}
}

// benchSweepPoint measures one latency/throughput point for an app+mode.
func benchSweepPoint(b *testing.B, app string, mode beldi.Mode) {
	b.Helper()
	pts, err := bench.Sweep(bench.SweepOptions{
		App:      app,
		Mode:     mode,
		Rates:    []float64{200},
		Duration: 600 * time.Millisecond,
		Warmup:   150 * time.Millisecond,
		Scale:    0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := pts[0]
	b.ReportMetric(p.Throughput, "tput-req/s")
	b.ReportMetric(ms(p.P50), "p50-ms")
	b.ReportMetric(ms(p.P99), "p99-ms")
}

// BenchmarkFig14MediaBaseline and ...Beldi regenerate a Figure 14 point:
// the movie review service under load.
func BenchmarkFig14MediaBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweepPoint(b, "media", beldi.ModeBaseline)
	}
}

// BenchmarkFig14MediaBeldi is the Beldi half of Figure 14.
func BenchmarkFig14MediaBeldi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweepPoint(b, "media", beldi.ModeBeldi)
	}
}

// BenchmarkFig15TravelBaseline and ...Beldi regenerate a Figure 15 point:
// the travel reservation service (cross-SSF transactions) under load.
func BenchmarkFig15TravelBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweepPoint(b, "travel", beldi.ModeBaseline)
	}
}

// BenchmarkFig15TravelBeldi is the Beldi half of Figure 15.
func BenchmarkFig15TravelBeldi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweepPoint(b, "travel", beldi.ModeBeldi)
	}
}

// BenchmarkFig26SocialBaseline and ...Beldi regenerate a Figure 26 point:
// the social media site under load (Appendix C).
func BenchmarkFig26SocialBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweepPoint(b, "social", beldi.ModeBaseline)
	}
}

// BenchmarkFig26SocialBeldi is the Beldi half of Figure 26.
func BenchmarkFig26SocialBeldi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweepPoint(b, "social", beldi.ModeBeldi)
	}
}

// BenchmarkFig16GCEffect regenerates Figure 16's mechanism at benchmark
// scale: median write latency and DAAL depth with and without garbage
// collection over simulated minutes.
func BenchmarkFig16GCEffect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.Fig16(bench.Fig16Options{
			Minutes:        6,
			MinuteDuration: 100 * time.Millisecond,
			Rate:           80,
			Scale:          0.02,
			TsMinutes:      []int{1},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			last := len(s.Median) - 1
			b.ReportMetric(ms(s.Median[last]), "p50-ms-"+sanitize(s.Label))
			b.ReportMetric(float64(s.Rows[last]), "rows-"+sanitize(s.Label))
		}
	}
}

// BenchmarkQueueBatchSweep measures the durable event-queue subsystem's
// consume throughput across event-source-mapper batch sizes (the queue
// figure; full series via `figures -fig queue`). Each sub-benchmark drains a
// fixed backlog at one batch size.
func BenchmarkQueueBatchSweep(b *testing.B) {
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := bench.QueueSweep(bench.QueueSweepOptions{
					Messages:   150,
					BatchSizes: []int{batch},
					Scale:      0.02,
					Seed:       1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[0].Throughput, "tput-msg/s")
				b.ReportMetric(float64(pts[0].Polls), "polls")
			}
		})
	}
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
		for _, c := range set {
			b.Run(c.Figure+"/"+c.Label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p, err := bench.RunCell(c)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(p.Throughput, "tput-steps/s")
					b.ReportMetric(ms(p.P50), "p50-ms")
					b.ReportMetric(ms(p.P99), "p99-ms")
					// One amortization ratio per layer that batches; 0 where
					// the cell has no such layer.
					b.ReportMetric(p.MeanBatch, "commit-batch")
					b.ReportMetric(p.SyncBatch, "fsync-batch")
					b.ReportMetric(p.PipeBatch, "overlay-batch")
				}
			})
		}
	}
}

// BenchmarkFanoutSweep measures durable-promise fan-out/fan-in throughput
// (awaited worker results per second) versus fan-out width (the fanout
// figure; full series via `figures -fig fanout`). Each sub-benchmark runs
// one (width, mode) cell.
func BenchmarkFanoutSweep(b *testing.B) {
	for _, width := range []int{1, 4, 8, 16} {
		for _, mode := range []beldi.Mode{beldi.ModeBeldi, beldi.ModeBaseline} {
			b.Run(fmt.Sprintf("width=%d/%s", width, bench.ModeLabel(mode)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pts, err := bench.FanoutSweep(bench.FanoutSweepOptions{
						Widths:   []int{width},
						Modes:    []beldi.Mode{mode},
						Duration: 250 * time.Millisecond,
						Seed:     1,
					})
					if err != nil {
						b.Fatal(err)
					}
					for _, p := range pts {
						b.ReportMetric(p.Throughput, "tput-results/s")
						b.ReportMetric(ms(p.P50), "p50-ms")
					}
				}
			})
		}
	}
}

// BenchmarkFigOrdersEventPipeline measures the event-driven order pipeline
// under load: entry latency is the client-visible placement, while the
// pipeline drains through queues in the background.
func BenchmarkFigOrdersEventPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweepPoint(b, "orders", beldi.ModeBeldi)
	}
}

// BenchmarkCostsAccounting regenerates the §7.3 storage/IO numbers.
func BenchmarkCostsAccounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Costs(20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.StoredBytesPerOpBeldi, "stored-B/op-beldi")
		b.ReportMetric(float64(rep.ReadBytesBeldi-rep.ReadBytesBaseline), "extra-read-B")
		b.ReportMetric(rep.StoreOpsPerWriteBeldi, "store-ops/write-beldi")
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '(', r == ')':
			// drop
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}

// BenchmarkClusterSweep measures the multi-worker runtime's committed-step
// throughput per pool size over one shared store, with and without a worker
// killed mid-window (the cluster figure; full series via `figures -fig
// cluster`). Each sub-benchmark runs one (workers, kill) cell; kill cells
// include the exactly-once recovery drain.
func BenchmarkClusterSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		for _, kill := range []bool{false, true} {
			if kill && workers < 2 {
				continue
			}
			name := fmt.Sprintf("workers=%d", workers)
			if kill {
				name += "/kill"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pts, err := bench.ClusterSweep(bench.ClusterSweepOptions{
						Workers:  []int{workers},
						Kill:     []bool{kill},
						Duration: 250 * time.Millisecond,
						Seed:     1,
					})
					if err != nil {
						b.Fatal(err)
					}
					for _, p := range pts {
						b.ReportMetric(p.Throughput, "tput-steps/s")
						b.ReportMetric(float64(p.Stolen), "stolen")
					}
				}
			})
		}
	}
}
