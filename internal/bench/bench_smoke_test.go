package bench

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/raceflag"
)

// Smoke tests: each experiment entry point runs end to end at tiny scale
// and produces structurally sane output. The real measurements live in
// cmd/figures and bench_test.go.

func TestFig13Smoke(t *testing.T) {
	// The cells run on a virtual clock: a Beldi read is two modeled round
	// trips to baseline's one (three before the one-query read), and the
	// medians are those charges, not wall time, so the comparison below
	// cannot be moved by scheduling. Two runs of the set must agree exactly.
	rows, err := RunAll(OpCells(3, 9, 1), RunOp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunAll(OpCells(3, 9, 1), RunOp)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rows, again) {
		t.Errorf("two runs of seed 1 differ:\n%v\n%v", rows, again)
	}
	if len(rows) != 12 { // 4 ops × 3 modes
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Median <= 0 || r.P99 < r.Median {
			t.Errorf("%s/%s: median=%v p99=%v", r.Op, ModeLabel(r.Mode), r.Median, r.P99)
		}
	}
	// Beldi reads must cost more than baseline reads (the paper's 2–4×).
	get := func(op string, m beldi.Mode) time.Duration {
		for _, r := range rows {
			if r.Op == op && r.Mode == m {
				return r.Median
			}
		}
		t.Fatalf("missing %s/%v", op, m)
		return 0
	}
	if get("Read", beldi.ModeBeldi) <= get("Read", beldi.ModeBaseline) {
		t.Error("Beldi read not more expensive than baseline")
	}
}

func TestSweepSmoke(t *testing.T) {
	pts, err := RunCurve(pick(t, AppCurves("media", []float64{50}, 300*time.Millisecond, 0.01, 1), "Baseline")[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Throughput <= 0 || pts[0].P50 <= 0 {
		t.Fatalf("point: %+v", pts)
	}
	if pts[0].Errors != 0 {
		t.Errorf("%d errors at trivial load", pts[0].Errors)
	}
}

func TestSweepAllAppsBuild(t *testing.T) {
	for _, app := range []string{"media", "travel", "social", "orders"} {
		sys := NewSystem(SystemOptions{Mode: beldi.ModeBeldi, Scale: 0.0001, Seed: 1, Concurrency: 10000})
		if _, err := BuildApp(sys, app); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
	sys := NewSystem(SystemOptions{Mode: beldi.ModeBeldi, Scale: 0.0001, Seed: 1, Concurrency: 10000})
	if _, err := BuildApp(sys, "nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestOrdersSweepSmoke(t *testing.T) {
	pts, err := RunCurve(pick(t, AppCurves("orders", []float64{40}, 300*time.Millisecond, 0.01, 1), "Beldi")[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Throughput <= 0 || pts[0].P50 <= 0 {
		t.Fatalf("point: %+v", pts)
	}
	if pts[0].Errors != 0 {
		t.Errorf("%d errors at trivial load", pts[0].Errors)
	}
}

func TestFig16Smoke(t *testing.T) {
	// A 250 ms minute writes about two 8-entry rows at the figure's 60
	// writes/s: enough for the collector's trims to show by minute 4.
	series, err := RunAll(pick(t, GCLines(4, 250*time.Millisecond, 0.0005, 1),
		"without GC", "with GC (1 min)", "cross-table txn"), RunGCLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 { // no-GC, GC(1min), cross-table
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Median) != 4 || len(s.Rows) != 4 {
			t.Errorf("%s: %d medians %d rows", s.Label, len(s.Median), len(s.Rows))
		}
	}
	// Without GC the DAAL must end deeper than with GC.
	if series[0].Rows[3] <= series[1].Rows[3] {
		t.Errorf("no-GC depth %d <= GC depth %d", series[0].Rows[3], series[1].Rows[3])
	}
}

func TestCostsSmoke(t *testing.T) {
	rep, err := Costs()
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreOpsPerReadBeldi <= rep.StoreOpsPerReadBaseline {
		t.Errorf("beldi reads %f ops <= baseline %f", rep.StoreOpsPerReadBeldi, rep.StoreOpsPerReadBaseline)
	}
	if rep.ReadBytesBeldi <= rep.ReadBytesBaseline {
		t.Errorf("beldi read bytes %d <= baseline %d", rep.ReadBytesBeldi, rep.ReadBytesBaseline)
	}
	if rep.DAALBytes20Rows <= 0 {
		t.Error("no DAAL footprint measured")
	}
	if rep.StoredBytesPerOpBeldi <= 0 {
		t.Errorf("beldi stored bytes per op = %f", rep.StoredBytesPerOpBeldi)
	}
	// An overwrite in place grows nothing; it cannot shrink the store.
	if rep.StoredBytesPerOpBaseline < 0 {
		t.Errorf("baseline stored bytes per op = %f, want >= 0", rep.StoredBytesPerOpBaseline)
	}
	// A lone read is fetch + flush, the figure's single-read row; k reads of
	// one instance share the flush.
	if rep.StoreOpsPerReadBeldi != 2 {
		t.Errorf("beldi round trips per lone read = %v, want 2", rep.StoreOpsPerReadBeldi)
	}
	for _, r := range rep.OpsPerReadAtK {
		if want := float64(r.K+1) / float64(r.K); r.OpsPerRead != want {
			t.Errorf("k=%d reads per instance: %v round trips per read, want (k+1)/k = %v", r.K, r.OpsPerRead, want)
		}
	}
	// A sync invocation of a k-read callee: insert + k fetches + callback when
	// the callee returns effect-free; intent row, flush of the k rows, write
	// and done mark on top when it ends in a write. The write is one
	// head-first update while the callee's key fits its head row (k = 0's 50
	// writes in a 64-entry row) and query + update once the key has grown
	// past it (during k = 1's calls, so its median call and k = 8's).
	if len(rep.OpsPerCallAtK) != 3 {
		t.Fatalf("%d callee rows, want k = 0, 1, 8", len(rep.OpsPerCallAtK))
	}
	for _, r := range rep.OpsPerCallAtK {
		flush, grown := 0, 0
		if r.K >= 1 {
			flush, grown = 1, 1
		}
		if free, writes := float64(2+r.K), float64(5+r.K+flush+grown); r.EffectFree != free || r.Writes != writes {
			t.Errorf("k=%d reads per callee: %v round trips effect-free, %v ending in a write; want %v and %v",
				r.K, r.EffectFree, r.Writes, free, writes)
		}
	}
	if rep.StoreOpsPerInvokeBeldi != 2 {
		t.Errorf("beldi round trips per invoke of an empty callee = %v, want 2 (insert + callback)", rep.StoreOpsPerInvokeBeldi)
	}
}

// TestTraversalAblationSmoke pins the ablation's shape: the one-query read
// is one round trip at every depth, the scan-then-read comparator two, the
// pointer chase one per row; and on the one-row chain that is the common
// case the single query also moves the fewest bytes.
func TestTraversalAblationSmoke(t *testing.T) {
	depths, err := RunAll(pick(t, AblationDepths(1), "1", "4"), RunDepth)
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[string]AblationRow{}
	for _, rows := range depths {
		for _, r := range rows {
			byCell[fmt.Sprintf("%s@%d", r.Strategy, r.Depth)] = r
		}
	}
	for _, depth := range []int{1, 4} {
		for strategy, want := range map[string]float64{"one-query": 1, "scan": 2, "pointer-chase": float64(depth)} {
			if got := byCell[fmt.Sprintf("%s@%d", strategy, depth)].StoreOps; got != want {
				t.Errorf("%s at depth %d: %.1f store ops per traversal, want %.0f", strategy, depth, got, want)
			}
		}
	}
	if one, scan := byCell["one-query@1"].BytesRead, byCell["scan@1"].BytesRead; one <= 0 || one >= scan {
		t.Errorf("depth 1: one-query read %.0f bytes, scan %.0f", one, scan)
	}
}

// wallClock runs a sweep whose shape is judged on wall-clock measurements.
// shape returns every violated expectation as a message; throughput and
// latency ratios can flake on an oversubscribed runner, so a sweep that
// violates any gets one retry of the whole set — the gaps asserted are ≥ 2×,
// which a scheduling hiccup essentially never erases twice in a row — and
// what the second attempt still violates fails the test. Under the race
// detector it is only logged: instrumentation makes the fast cell of each
// pair CPU-bound (the deep pipeline stops at ~2.4× on two cores), so there the
// ratios measure the detector. Count-based assertions (batch sizes, RPC and
// wake-up counts) are exact on every run: callers make them on the returned
// points, outside the retry.
func wallClock[P any](t *testing.T, want int, run func() ([]P, error), shape func([]P) []string) []P {
	t.Helper()
	for attempt := 0; ; attempt++ {
		pts, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != want {
			t.Fatalf("%d points, want %d: %+v", len(pts), want, pts)
		}
		bad := shape(pts)
		if raceflag.Enabled && len(bad) > 0 {
			t.Logf("under -race, not judged: %q", bad)
			return pts
		}
		if len(bad) == 0 || attempt == 1 {
			for _, msg := range bad {
				t.Error(msg)
			}
			return pts
		}
		t.Logf("retrying once; wall-clock shape violated: %q", bad)
	}
}

// label is a parameter set's Label field: every figure's set type has one.
func label(p any) string { return reflect.ValueOf(p).FieldByName("Label").String() }

// pick returns the parameter sets of a figure with the given labels, in that
// order.
func pick[P any](t *testing.T, set []P, labels ...string) []P {
	t.Helper()
	var out []P
	for _, l := range labels {
		i := slices.IndexFunc(set, func(p P) bool { return label(p) == l })
		if i < 0 {
			t.Fatalf("no parameter set labelled %q in %+v", l, set)
		}
		out = append(out, set[i])
	}
	return out
}

func TestShardSweepSmoke(t *testing.T) {
	// 4 shard counts × {plain, batched}, in that order.
	pts := wallClock(t, 8, func() ([]Point, error) {
		return RunAll(ShardCells(250*time.Millisecond, 0.02, 1), RunCell)
	}, func(pts []Point) (bad []string) {
		// The tentpole claim: with the store flush-bound, committed-steps/sec
		// rises monotonically with the shard count at fixed offered load
		// (each doubling roughly doubles the number of independent commit
		// streams, so the margins are wide).
		for i := 2; i < len(pts); i += 2 {
			if pts[i].Throughput <= pts[i-2].Throughput {
				bad = append(bad, fmt.Sprintf("plain commit: tput not increasing %d→%d shards: %.1f <= %.1f",
					pts[i-2].Shards, pts[i].Shards, pts[i].Throughput, pts[i-2].Throughput))
			}
		}
		// Group commit amortizes the flush across queued writers: on one
		// shard (maximum contention) it must beat the plain path by a wide
		// margin.
		if plain, batched := pts[0], pts[1]; batched.Throughput <= 2*plain.Throughput {
			bad = append(bad, fmt.Sprintf("group commit on 1 shard: %.1f steps/s <= 2x plain %.1f",
				batched.Throughput, plain.Throughput))
		}
		return bad
	})
	for i, p := range pts {
		if p.Steps <= 0 || p.Throughput <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
		// Plain points must not have touched the batcher.
		if i%2 == 0 && (p.GroupCommit || p.GroupCommits != 0 || p.MeanBatch != 1) {
			t.Errorf("plain point at %d shards recorded %d group commits, mean batch %.1f", p.Shards, p.GroupCommits, p.MeanBatch)
		}
	}
	// ... and the batched one-shard point must report real batching.
	if batched := pts[1]; batched.GroupCommits <= 0 || batched.MeanBatch <= 1.5 {
		t.Errorf("no real batching: %d batches, mean %.2f", batched.GroupCommits, batched.MeanBatch)
	}
}

func TestFanoutSweepSmoke(t *testing.T) {
	pts := wallClock(t, 2, func() ([]FanoutSweepPoint, error) {
		return RunAll(pick(t, FanoutCells(250*time.Millisecond, 0.02, 1), "1/beldi", "8/beldi"), RunFanout)
	}, func(pts []FanoutSweepPoint) (bad []string) {
		// Wider fan-out amortizes the per-round driver overhead across more
		// awaited results: results/s must grow with width (~2× from 1 to 8).
		if pts[1].Throughput <= pts[0].Throughput {
			bad = append(bad, fmt.Sprintf("results/s did not grow with width: %.1f (w=1) vs %.1f (w=8)",
				pts[0].Throughput, pts[1].Throughput))
		}
		return bad
	})
	for _, p := range pts {
		if p.FanIns <= 0 || p.Results != p.FanIns*int64(p.Width) {
			t.Fatalf("inconsistent point: %+v", p)
		}
		if p.P50 <= 0 || p.P99 < p.P50 {
			t.Errorf("latency stats broken: %+v", p)
		}
	}
}

// TestBackendSweepSmoke pins the backend figure's shape: every cell
// commits work; the WAL cells actually journal; batching amortizes fsyncs
// (several records per flush) while the unbatched cell pays at least one
// fsync per committed step.
func TestBackendSweepSmoke(t *testing.T) {
	pts := wallClock(t, 4, func() ([]Point, error) {
		return RunAll(BackendCells(250*time.Millisecond, 1), RunCell)
	}, func(pts []Point) (bad []string) {
		// Batching must beat per-record fsyncs under concurrent load (~5×).
		if batched, each := pts[2], pts[3]; batched.Throughput <= each.Throughput {
			bad = append(bad, fmt.Sprintf("batched (%0.1f steps/s) not faster than fsync-each (%0.1f)",
				batched.Throughput, each.Throughput))
		}
		return bad
	})
	byKind := map[BackendKind]Point{}
	for _, p := range pts {
		if p.Steps <= 0 || p.Throughput <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
		byKind[p.Backend] = p
	}
	for _, k := range []BackendKind{BackendWALNoSync, BackendWALBatched, BackendWALEach} {
		if byKind[k].WALBytes == 0 {
			t.Errorf("%s journaled nothing", k)
		}
	}
	if mem := byKind[BackendMemory]; mem.Fsyncs != 0 || mem.SyncBatch != 0 {
		t.Errorf("memory backend fsynced %d times, sync batch %.1f", mem.Fsyncs, mem.SyncBatch)
	}
	// The nosync cell never flushes on the commit path, but segment
	// rotation still fsyncs the old file; on a fast machine the window can
	// cross the segment cap, so allow a handful, not per-commit flushing.
	if ns := byKind[BackendWALNoSync]; ns.Fsyncs*10 > ns.Steps {
		t.Errorf("wal-nosync fsyncs=%d for %d steps (should be rotation-only)", ns.Fsyncs, ns.Steps)
	}
	// One fsync per record, and a mean batch of 1, not 0: the cell flushed,
	// it just never batched.
	if each := byKind[BackendWALEach]; each.Fsyncs < each.Steps || each.SyncBatch != 1 {
		t.Errorf("wal-each fsyncs=%d < steps=%d, or sync batch %.1f != 1", each.Fsyncs, each.Steps, each.SyncBatch)
	}
	if batched := byKind[BackendWALBatched]; batched.Fsyncs == 0 || batched.SyncBatch < 2 {
		t.Errorf("wal-batched shows no amortization: fsyncs=%d mean batch=%.1f",
			batched.Fsyncs, batched.SyncBatch)
	}
}

// TestRemoteSweepSmoke pins the remote figure's shape: every cell commits
// work, the baseline is local, remote cells carry wire-level RPC counts
// (several round trips per committed step), and adding simulated RTT can
// only slow the remote path down.
func TestRemoteSweepSmoke(t *testing.T) {
	pts, err := RunAll(pick(t, RemoteCells(250*time.Millisecond, 1), "inproc", "0s", "2ms"), RunCell)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Steps <= 0 || p.Throughput <= 0 || p.P99 <= 0 {
			t.Fatalf("empty cell: %+v", p)
		}
		if !p.Wire {
			if p.RPCs != 0 || p.RPCP99 != 0 {
				t.Errorf("in-process cell reports %d RPCs, p99 %v", p.RPCs, p.RPCP99)
			}
			continue
		}
		// Each committed step costs multiple store round trips (intent,
		// log, value); the wire counter must see them.
		if p.RPCs < p.Steps {
			t.Errorf("remote cell rtt=%v: %d RPCs for %d steps", p.RTT, p.RPCs, p.Steps)
		}
	}
	// What the injected delay guarantees: every request makes at least one
	// RPC and every RPC waits out the RTT, so the delayed cell's median
	// request latency is at least the RTT. (Comparing the two cells'
	// throughput is a statement about the machine: on a loaded 2-vCPU box
	// the zero-delay cell has been seen slower than the delayed one.)
	if delayed := pts[2]; delayed.P50 < delayed.RTT {
		t.Errorf("rtt=%v cell has request p50 %v, below the injected delay", delayed.RTT, delayed.P50)
	}
}

// TestClusterSweepSmoke pins the cluster figure's shape: the pool scales —
// four workers strictly outthroughput one over the same shared store — and
// the kill cell both commits work and proves recovery (the cell blocks on
// pending-intent drain, and the survivors' steals are visible).
func TestClusterSweepSmoke(t *testing.T) {
	// 1/no-kill, 4/no-kill, 4/kill.
	pts := wallClock(t, 3, func() ([]ClusterSweepPoint, error) {
		return RunAll(pick(t, ClusterCells(300*time.Millisecond, 0.05, 1), "1", "4", "4/kill"), RunCluster)
	}, func(pts []ClusterSweepPoint) (bad []string) {
		// Horizontal scaling: the latency-bound load quadruples with the
		// pool; the 1→4 gap is ~3.5×.
		if one, four := pts[0], pts[1]; four.Throughput <= one.Throughput {
			bad = append(bad, fmt.Sprintf("4 workers (%.1f steps/s) no faster than 1 (%.1f)", four.Throughput, one.Throughput))
		}
		return bad
	})
	for _, p := range pts {
		if p.Steps <= 0 || p.Throughput <= 0 {
			t.Fatalf("empty cell: %+v", p)
		}
	}
	if one, four, killed := pts[0], pts[1], pts[2]; one.Workers != 1 || one.Killed || four.Workers != 4 || four.Killed || killed.Workers != 4 || !killed.Killed {
		t.Fatalf("unexpected cell order: %+v", pts)
	}
	// The kill cell only returns after every in-flight workflow completed
	// exactly once on a survivor; a successful steal is the mechanism.
	if killed := pts[2]; killed.Stolen == 0 {
		t.Errorf("kill cell stole no partitions: %+v", killed)
	}
}
