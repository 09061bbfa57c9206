package dynamo

import (
	"math/rand"
	"sync"
	"time"
)

// OpKind classifies store operations for the latency model and metrics.
type OpKind uint8

// Operation kinds.
const (
	OpGet OpKind = iota
	OpPut
	OpUpdate
	OpDelete
	OpQuery
	OpScan
	OpTxWrite
	opKinds // sentinel
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpQuery:
		return "query"
	case OpScan:
		return "scan"
	case OpTxWrite:
		return "txwrite"
	}
	return "unknown"
}

// LatencyModel decides how long an operation's simulated round trip takes.
// items and bytes describe the response payload (rows touched and projected
// bytes), letting models charge for scan fan-out the way a real network
// round trip would.
type LatencyModel interface {
	OpLatency(op OpKind, items, bytes int) time.Duration
}

// CommitLatencyModel is an optional LatencyModel extension for stores whose
// write path holds a partition's write latch while the mutation is made
// durable (an fsync, a replication round). When the installed model
// implements it, the store charges CommitLatency inside the owning shard's
// critical section: one charge per write on the plain path, one charge per
// batch on the group-commit path — which is exactly the cost structure group
// commit amortizes. Models that don't implement it (the defaults) charge
// nothing, preserving the seed's behavior.
type CommitLatencyModel interface {
	// CommitLatency returns the latch-hold cost of committing a batch of
	// ops operations.
	CommitLatency(ops int) time.Duration
}

// ZeroLatency is the unit-test model: no artificial delay.
type ZeroLatency struct{}

// OpLatency implements LatencyModel.
func (ZeroLatency) OpLatency(OpKind, int, int) time.Duration { return 0 }

// CloudLatency models a managed NoSQL store reached over a datacenter
// network: a per-op base cost, a per-item and per-KB increment, and
// multiplicative jitter with an occasional slow tail. The defaults are
// scaled-down DynamoDB-like shapes (the paper's Figure 13 baseline measures
// single-digit-millisecond medians); Scale lets benchmarks compress time.
type CloudLatency struct {
	Base    [opKinds]time.Duration
	PerItem time.Duration
	PerKB   time.Duration
	// Jitter is the +/- fraction of uniform noise (0.2 = ±20%).
	Jitter float64
	// TailP is the probability of a tail event that multiplies the sample by
	// TailMult (models p99 behaviour).
	TailP    float64
	TailMult float64
	// Scale multiplies every sample; 0 means 1.0.
	Scale float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewCloudLatency returns a CloudLatency with DynamoDB-shaped defaults,
// compressed by scale (e.g. scale=0.1 runs 10× faster than the modelled
// service) and seeded deterministically.
func NewCloudLatency(scale float64, seed int64) *CloudLatency {
	m := &CloudLatency{
		PerItem:  40 * time.Microsecond,
		PerKB:    8 * time.Microsecond,
		Jitter:   0.25,
		TailP:    0.01,
		TailMult: 5,
		Scale:    scale,
		rng:      rand.New(rand.NewSource(seed)),
	}
	m.Base[OpGet] = 3 * time.Millisecond
	m.Base[OpPut] = 4 * time.Millisecond
	m.Base[OpUpdate] = 4 * time.Millisecond
	m.Base[OpDelete] = 4 * time.Millisecond
	m.Base[OpQuery] = 4 * time.Millisecond
	m.Base[OpScan] = 5 * time.Millisecond
	// TransactWriteItems runs a two-phase commit across the items; on
	// DynamoDB it costs several times a plain write (the §7.3 comparison
	// has cross-table-txn writes at 2–2.5× a full Beldi DAAL write, i.e.
	// roughly scan+update doubled).
	m.Base[OpTxWrite] = 22 * time.Millisecond
	return m
}

// CommitCost decorates a LatencyModel with a group-commit cost shape: each
// commit batch pays Flush once plus PerOp per operation, charged while the
// owning shard's write latch is held. Wrapping CloudLatency with a nonzero
// Flush turns the store into a flush-bound substrate whose throughput
// ceiling is shards/Flush unbatched and far higher under group commit — the
// regime bench.ShardCells measures.
type CommitCost struct {
	// Inner handles per-op round-trip latency; nil means ZeroLatency.
	Inner LatencyModel
	// Flush is the fixed per-batch latch-hold cost.
	Flush time.Duration
	// PerOp is the incremental latch-hold cost per operation in the batch.
	PerOp time.Duration
}

// OpLatency implements LatencyModel by delegating to Inner.
func (c CommitCost) OpLatency(op OpKind, items, bytes int) time.Duration {
	if c.Inner == nil {
		return 0
	}
	return c.Inner.OpLatency(op, items, bytes)
}

// CommitLatency implements CommitLatencyModel.
func (c CommitCost) CommitLatency(ops int) time.Duration {
	return c.Flush + time.Duration(ops)*c.PerOp
}

// OpLatency implements LatencyModel.
func (m *CloudLatency) OpLatency(op OpKind, items, bytes int) time.Duration {
	d := m.Base[op] + time.Duration(items)*m.PerItem + time.Duration(bytes/1024)*m.PerKB
	m.mu.Lock()
	j := 1 + m.Jitter*(2*m.rng.Float64()-1)
	tail := m.rng.Float64() < m.TailP
	m.mu.Unlock()
	f := float64(d) * j
	if tail {
		f *= m.TailMult
	}
	scale := m.Scale
	if scale == 0 {
		scale = 1
	}
	return time.Duration(f * scale)
}
