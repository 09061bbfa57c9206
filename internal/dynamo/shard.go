package dynamo

import "sync"

// This file implements the store's intra-table sharding and the per-shard
// group-commit path. A table's rows are hash-partitioned across Shards
// lock-striped shards, so writes to different shards never contend; writes
// landing on the same shard can additionally be coalesced by a group-commit
// batcher that applies a whole queue of conditional writes inside one
// critical section (one latch acquisition, one flush), the way Netherite
// batches speculative commits per partition. Each operation in a batch still
// evaluates its own condition against the then-current row, so per-key
// conditional semantics are exactly those of the unbatched path.

// DefaultShards is the store-wide default shard count per table. The default
// of 1 preserves the seed's single-latch behavior (and its whole-table
// consistent snapshots) exactly; deployments opt into striping per store
// (WithShards) or per table (Schema.Shards).
const DefaultShards = 1

// MaxShards is the most lock stripes a table may ask for. A stripe is an
// allocation made at CreateTable, and a schema can arrive off a socket or a
// log, so the count is bounded well above any useful value (stripes beyond
// the core count buy nothing; this tree's largest is 16).
const MaxShards = 1024

// shard is one lock stripe of a table: a private partition map under its own
// RWMutex, plus the group-commit queue for writes routed to this stripe.
type shard struct {
	t     *table
	mu    sync.RWMutex
	parts map[ScalarKey]*partition

	gc committer
}

// committer is a shard's group-commit state: a queue of pending writes and a
// leader flag. The first writer to find the shard idle becomes the leader,
// drains the queue in one critical section, and wakes the followers; writers
// arriving while a batch is in flight just enqueue and wait, forming the
// next batch.
type committer struct {
	mu      sync.Mutex
	pending []*commitOp
	active  bool
}

// commitOp is one queued write: the write, applied under the shard's write
// lock by whichever writer leads its batch, and a channel closed when that
// batch has committed.
type commitOp struct {
	write
	done chan struct{}
}

// find returns the partition and position of the row for key, or nil.
// Caller holds sh.mu.
func (sh *shard) find(k Key) (*partition, int) {
	p := sh.parts[KeyOf(k.Hash)]
	if p == nil {
		return nil, 0
	}
	i, found := p.find(k.Sort)
	if !found {
		return nil, 0
	}
	sh.t.verify(p.rows[i])
	return p, i
}

// get returns the live row for key, or nil. Caller holds sh.mu.
func (sh *shard) get(k Key) *row {
	p, i := sh.find(k)
	if p == nil {
		return nil
	}
	return p.rows[i]
}

// put installs a under key, replacing any existing row. The list becomes the
// store's; its values stay shared with whoever built them. Caller holds
// sh.mu.
func (sh *shard) put(k Key, a attrs) {
	hk := KeyOf(k.Hash)
	p, ok := sh.parts[hk]
	if !ok {
		p = &partition{}
		sh.parts[hk] = p
	}
	i, found := p.find(k.Sort)
	if found {
		sh.t.verify(p.rows[i])
		sh.install(p.rows[i], a)
		return
	}
	r := &row{}
	sh.install(r, a)
	p.insertAt(i, r)
}

// install makes a the row's attributes and finds its sort value among them.
// Caller holds sh.mu.
func (sh *shard) install(r *row, a attrs) {
	r.attrs, r.sort = a, -1
	if name := sh.t.schema.SortKey; name != "" {
		i, ok := search(a, name)
		if !ok {
			panic("dynamo: table " + sh.t.schema.Name + ": a row without its sort attribute " + name)
		}
		r.sort = i
	}
	sh.t.remember(r)
}

// delete removes the row for key if present. Caller holds sh.mu.
func (sh *shard) delete(k Key) {
	p, i := sh.find(k)
	if p == nil {
		return
	}
	sh.t.forget(p.rows[i])
	p.removeAt(i)
	if len(p.rows) == 0 {
		delete(sh.parts, KeyOf(k.Hash))
	}
}

// applyWrite runs w inside sh's write critical section, charging the
// latency model's commit cost while the latch is held (real stores hold a
// partition's write latch for the duration of the persistence flush; see
// CommitLatencyModel). With group commit off, every write pays its own
// latch acquisition and flush, and w never leaves the caller's stack. With
// group commit on, a copy of w joins the shard's in-flight batch: a leader
// drains the whole queue under one latch and one flush, and per-op
// conditions are evaluated by each write against the row state its
// predecessors in the batch left behind — the same serialization the
// unbatched path produces.
func (s *Store) applyWrite(sh *shard, w *write) {
	if !s.groupCommit {
		sh.mu.Lock()
		w.apply(sh)
		s.commitSleep(1)
		sh.mu.Unlock()
		return
	}
	op := &commitOp{write: *w, done: make(chan struct{})}
	defer func() { *w = op.write }()
	sh.gc.mu.Lock()
	sh.gc.pending = append(sh.gc.pending, op)
	if sh.gc.active {
		sh.gc.mu.Unlock()
		<-op.done
		return
	}
	sh.gc.active = true
	for {
		batch := sh.gc.pending
		sh.gc.pending = nil
		if len(batch) == 0 {
			sh.gc.active = false
			sh.gc.mu.Unlock()
			return
		}
		sh.gc.mu.Unlock()

		sh.mu.Lock()
		for _, o := range batch {
			o.apply(sh)
		}
		s.commitSleep(len(batch))
		sh.mu.Unlock()

		s.metrics.GroupCommits.Add(1)
		s.metrics.GroupCommitOps.Add(int64(len(batch)))
		for _, o := range batch {
			close(o.done)
		}
		sh.gc.mu.Lock()
	}
}

// commitSleep charges the commit-latch cost for a batch of ops to the
// store's clock, when the latency model defines one.
func (s *Store) commitSleep(ops int) {
	m, ok := s.latency.(CommitLatencyModel)
	if !ok {
		return
	}
	if d := m.CommitLatency(ops); d > 0 {
		s.clk.Sleep(d)
	}
}
