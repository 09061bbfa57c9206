package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// Smoke tests for the commit-pipelining cells: the speculation overlay must
// actually buy throughput over the synchronous baseline at smoke scale, and
// the amortization counters must show real batching. The full series live in
// cmd/figures -fig pipeline and BenchmarkStepCells.

// specShape is the two tests' wall-clock claim: the speculative cell clears
// factor × the synchronous one.
func specShape(factor float64) func([]Point) []string {
	return func(pts []Point) []string {
		if base, deep := pts[0], pts[1]; deep.Throughput <= factor*base.Throughput {
			return []string{fmt.Sprintf("speculation tput %.1f steps/s <= %gx synchronous %.1f",
				deep.Throughput, factor, base.Throughput)}
		}
		return nil
	}
}

// TestPipelineSweepSmoke pins the pipeline figure's shape on the memory
// substrate: the deep-pipeline cell must beat the synchronous depth-1
// baseline by a wide margin (the measured gap is ~10× at 16 steps per
// invoke, so asserting 3× leaves room for a noisy runner), the committer
// must report real batches, and the baseline must never touch the overlay.
func TestPipelineSweepSmoke(t *testing.T) {
	cells := pick(t, PipelineCells(300*time.Millisecond, 0.02, 1), "memory/1", "memory/1024")
	// The tentpole claim: speculation overlaps every per-step round trip
	// and pays one group commit per fence window instead.
	pts := wallClock(t, 2, func() ([]Point, error) { return RunAll(cells, RunCell) }, specShape(3))
	base, deep := pts[0], pts[1]
	for _, p := range pts {
		if p.Invokes <= 0 || p.Steps != p.Invokes*16 || p.Throughput <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
		if p.P50 <= 0 || p.P99 < p.P50 {
			t.Errorf("latency stats broken: %+v", p)
		}
	}
	// Depth 1 runs without the overlay: no committer, no flushes.
	if base.PipeFlushes != 0 || base.PipeBatch != 0 || base.ModeledFlushTime != 0 {
		t.Errorf("baseline touched the overlay: %+v", base)
	}
	// The win must come from amortization, not from skipping durability:
	// real group commits carrying many post-image rows each.
	if deep.PipeFlushes <= 0 || deep.PipeBatch <= 1.5 {
		t.Errorf("no real batching: %d flushes, mean %.2f", deep.PipeFlushes, deep.PipeBatch)
	}
	// The memory substrate models its commit cost, and the overlay accounts
	// for it per batch.
	if deep.ModeledFlushTime <= 0 {
		t.Errorf("modeled flush time not accounted: %+v", deep)
	}
}

// TestShardSweepSpecSmoke pins speculation on the shard figure's substrate:
// on one flush-bound shard with group commit on and 16 steps per invoke, the
// cell at the overlay's default depth must beat the synchronous cell
// (measured ~9×) and report the overlay's amortization counters; the
// synchronous cell must report zeros.
func TestShardSweepSpecSmoke(t *testing.T) {
	sync := pick(t, ShardCells(300*time.Millisecond, 0.02, 1), "1/batched")[0]
	sync.StepsPerInvoke = 16
	spec := sync
	spec.Label, spec.Depth = "1/batched/spec", pipeline.DefaultDepth
	pts := wallClock(t, 2, func() ([]Point, error) { return RunAll([]Cell{sync, spec}, RunCell) }, specShape(2))
	for _, p := range pts {
		if p.Steps <= 0 || p.Throughput <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
	}
	if base := pts[0]; base.PipeFlushes != 0 || base.PipeBatch != 0 {
		t.Errorf("synchronous cell touched the overlay: %+v", base)
	}
	if deep := pts[1]; deep.PipeFlushes <= 0 || deep.PipeBatch <= 1.5 {
		t.Errorf("no real batching: %d flushes, mean %.2f", deep.PipeFlushes, deep.PipeBatch)
	}
}
