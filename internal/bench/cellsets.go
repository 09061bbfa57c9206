package bench

import (
	"fmt"
	"time"
)

// The five step-commit figures, each the list of cells RunAll(cells, RunCell)
// measures for it, in the order cmd/figures prints them. Every parameter is spelled out
// here; what a caller may vary is the window, the seed and — where the
// substrate is simulated — the latency compression.

// cellFlush is the per-batch commit-latch cost of the flush-bound memory
// cells (shard figure, pipeline figure's memory substrate).
const cellFlush = 300 * time.Microsecond

// ShardCells is the partition-scaling experiment of Netherite ("Serverless
// Workflows with Durable Functions and Netherite"), transplanted onto Beldi's
// substrate: committed steps per second versus the store's shard count, at a
// fixed offered load, with the group-commit path off and on. The store runs
// flush-bound, so one shard serializes every logged write behind one latch —
// the seed's behavior — while N shards give N independent commit streams and
// group commit amortizes the flush across every write queued behind it.
func ShardCells(duration time.Duration, scale float64, seed int64) []Cell {
	var cells []Cell
	for _, shards := range []int{1, 2, 4, 8} {
		for _, commit := range []string{"plain", "batched"} {
			cells = append(cells, Cell{
				Figure: "shard", Label: fmt.Sprintf("%d/%s", shards, commit),
				Backend: BackendMemory, Shards: shards, GroupCommit: commit == "batched",
				Scale: scale, Flush: cellFlush,
				Depth: 1, StepsPerInvoke: 1, Workers: 32,
				Duration: duration, Seed: seed,
			})
		}
	}
	return cells
}

// BackendCells is what durability costs on the hot logging path: the same
// load on the in-memory store at zero simulated latency (the raw substrate
// ceiling) and on the WAL-backed store journaling without fsync, with
// group-committed fsyncs, and with one fsync per record. The WAL cells pay
// real disk writes and real fsyncs, so the batched-vs-each gap is the
// measured amortization of the group-commit flush — the same lever Netherite
// pulls by batching a partition's speculative commits into one persistence
// round.
func BackendCells(duration time.Duration, seed int64) []Cell {
	var cells []Cell
	for _, kind := range []BackendKind{BackendMemory, BackendWALNoSync, BackendWALBatched, BackendWALEach} {
		c := Cell{
			Figure: "backend", Label: string(kind), Backend: kind,
			Depth: 1, StepsPerInvoke: 1, Workers: 32,
			Duration: duration, Seed: seed,
		}
		if kind == BackendMemory {
			c.Shards = 1
		}
		cells = append(cells, c)
	}
	return cells
}

// RemoteCells is what the network seam costs: the same load with the
// walstore in-process and behind the internal/remote wire protocol at
// several simulated server-side RTTs. The zero-RTT remote cell isolates the
// framing/pipelining overhead itself; the delayed cells show how the
// protocol's per-step round trips compound with distance — the regime the
// paper's DynamoDB deployment actually runs in, where each store op costs
// single-digit milliseconds of network before any work happens.
func RemoteCells(duration time.Duration, seed int64) []Cell {
	base := Cell{
		Figure: "remote", Label: "inproc", Backend: BackendWALBatched,
		Depth: 1, StepsPerInvoke: 1, Workers: 32,
		Duration: duration, Seed: seed,
	}
	cells := []Cell{base}
	for _, rtt := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond} {
		c := base
		c.Label, c.Wire, c.RTT = rtt.String(), true, rtt
		cells = append(cells, c)
	}
	return cells
}

// PipelineCells is Netherite's speculation figure transplanted onto Beldi:
// committed steps per second and per-invocation latency versus pipeline
// depth, on each storage substrate — the in-memory store under the cloud
// latency model plus a per-batch commit flush (the paper's DynamoDB
// stand-in), the walstore with group-committed fsyncs on real disk, and that
// walstore behind the framed TCP wire with a simulated network delay. Depth
// 1 is the synchronous baseline; deeper pipelines execute speculatively
// against the read-your-own-writes overlay while the background committer
// group-commits batches of post-images, and throughput climbs until one
// group commit per fence window carries every concurrent workflow's writes.
// Depth bounds the unflushed writes across ALL workers, so useful depths sit
// well above Workers × StepsPerInvoke — shallower pipelines throttle every
// writer to the group-commit cadence.
func PipelineCells(duration time.Duration, scale float64, seed int64) []Cell {
	substrates := []Cell{
		{Label: "memory", Backend: BackendMemory, Shards: 1, GroupCommit: true, Scale: scale, Flush: cellFlush},
		{Label: "wal", Backend: BackendWALBatched},
		{Label: "remote", Backend: BackendWALBatched, Wire: true, RTT: 500 * time.Microsecond},
	}
	var cells []Cell
	for _, sub := range substrates {
		for _, depth := range []int{1, 32, 256, 1024} {
			c := sub
			c.Figure, c.Label = "pipeline", fmt.Sprintf("%s/%d", sub.Label, depth)
			c.Depth, c.StepsPerInvoke, c.Workers = depth, 16, 32
			c.Duration, c.Seed = duration, seed
			cells = append(cells, c)
		}
	}
	return cells
}

// LatencyCells is the tail of Beldi's per-request latency — the figure the
// paper reports with wrk2 against real Lambda (§7.2, Figures 14/15 show
// median and 99th percentile): client-observed p50/p90/p99 of a logged-write
// workflow across storage backends and closed-loop worker counts, after a
// warmup, with telemetry on so each cell also reports the runtime's
// step-commit latency (what one logged write costs) and, on the WAL kinds,
// fsync latency (the floor under durability).
func LatencyCells(duration time.Duration, seed int64) []Cell {
	var cells []Cell
	for _, kind := range []BackendKind{BackendMemory, BackendWALBatched, BackendWALEach} {
		for _, workers := range []int{1, 8, 32} {
			c := Cell{
				Figure: "latency", Label: fmt.Sprintf("%s/%d", kind, workers), Backend: kind,
				Depth: 1, StepsPerInvoke: 1, Workers: workers,
				Duration: duration, Warmup: duration / 4, Telemetry: true, Seed: seed,
			}
			if kind == BackendMemory {
				c.Shards = 1
			}
			cells = append(cells, c)
		}
	}
	return cells
}
