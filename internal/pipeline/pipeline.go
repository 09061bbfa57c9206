// Package pipeline is the speculation and commit-pipelining layer above the
// storage seam: the Netherite-style optimization that lets a worker's
// workflows execute ahead of durability while a background committer folds
// their log mutations into large group-committed batches.
//
// Store wraps any storage.Backend. Every write lands immediately in an
// in-memory shadow (a zero-latency dynamo store holding base ∪ speculative
// state), so reads are read-your-own-writes and cost no round trip; the
// mutation only marks its row dirty and advances the append watermark. A
// committer — background goroutine by default, explicit FlushStep calls
// under ManualFlush (the simulator's mode) — captures the dirty rows'
// post-images and installs them on the base backend with ONE TransactWrite
// per batch: one commit-latch charge on the in-memory store, one journaled
// record and fsync on the walstore, one RPC on the remote plane. That single
// atomic batch is what turns N per-step round trips into one, and it is
// also the crash-safety argument: the durable state only ever moves from
// one consistent speculation-log prefix to a later one, so a crash loses a
// suffix of whole steps, never a torn interleaving of them.
//
// Durability is a watermark pair: appendLSN counts speculated write
// operations, durableLSN the flushed prefix. Fence blocks until everything
// appended so far is durable — the runtime calls it before any externally
// visible effect (a workflow's reply to its client; see core's entry-reply
// fence via storage.Fence). Effects that are themselves store writes
// (promise posts, queue acks, transaction commit records, cross-SSF async
// intents) need no fence at all: they ride the same ordered speculation log
// and flush atomically with the steps they depend on, so recovery replays
// only the durable prefix and no effect can outrun its cause.
//
// The overlay assumes a single writing process: the shadow is warmed from
// the base once and thereafter trusts that nobody else mutates the flushed
// rows underneath it. That is the deployment-per-worker model —
// beldi.DeploymentOptions.Speculation enables it for exactly that case and
// multi-writer clusters leave it off.
package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/storage"
)

// The overlay's sizes: Depth's default, and the committer's two fixed
// triggers.
const (
	// DefaultDepth is the default bound on speculated-but-unflushed write
	// operations.
	DefaultDepth = 4096
	// flushBatch is the dirty-row count that triggers a flush without
	// waiting for flushLinger (also a soft cap keeping one batch inside
	// sane TransactWrite/wire-frame sizes).
	flushBatch = 128
	// flushLinger is how long the committer lets a batch fill when no
	// fence is waiting and flushBatch has not been reached.
	flushLinger = 200 * time.Microsecond
)

// Options tune a Store. The zero value gives DefaultDepth with a background
// committer, which flushes at 128 dirty rows (flushBatch), after 200 µs of
// filling (flushLinger), or as soon as a Fence is waiting.
type Options struct {
	// Depth bounds how many write operations may sit above the durability
	// watermark before writers block on the committer. Depth 1 is the
	// synchronous regime: every write waits for its own flush. 0 means
	// DefaultDepth.
	Depth int
	// ManualFlush disables the background committer: flushes happen only
	// inside Fence, FlushStep, and depth-bound writes. The deterministic
	// simulator schedules FlushStep as a first-class task; wall-clock
	// deployments leave this false.
	ManualFlush bool
}

// Stats counts the overlay's traffic; snapshot with Snapshot.
type Stats struct {
	// Appended counts speculated write operations.
	Appended int64
	// Flushes counts committed batches; FlushedRows the post-image rows they
	// carried (MeanBatch = FlushedRows/Flushes is the amortization factor).
	Flushes     int64
	FlushedRows int64
	// MaxBatch is the largest single batch.
	MaxBatch int64
	// Fences counts Fence calls; FenceWaits those that actually had to wait
	// for a flush.
	Fences     int64
	FenceWaits int64
	// ModeledFlushTime accumulates the base store's modeled per-batch commit
	// latency (dynamo.Store.ModelCommitLatency) across flushes — what the
	// simulated substrate says the durability rounds cost, for comparing
	// batch-size amortization between simulated and wall-clock sweeps.
	ModeledFlushTime time.Duration
}

// dirtyKey addresses one speculated row awaiting flush.
type dirtyKey struct {
	table      string
	hash, sort dynamo.ScalarKey
}

// before orders dirty rows by table, then hash, then sort key: a flush's
// deterministic install order.
func (a dirtyKey) before(b dirtyKey) bool {
	if a.table != b.table {
		return a.table < b.table
	}
	if a.hash != b.hash {
		return a.hash.Before(b.hash)
	}
	return a.sort.Before(b.sort)
}

// keySpec caches a table's primary-key attribute names.
type keySpec struct {
	hash, sort string
}

// Store is the speculation overlay; it implements storage.Backend. See the
// package comment for the model. Create with New, enable per deployment with
// beldi.DeploymentOptions.Speculation.
type Store struct {
	base   storage.Backend
	shadow *dynamo.Store
	opts   Options

	mu          sync.Mutex
	condWork    *sync.Cond // committer waits for dirty rows / close
	condDurable *sync.Cond // writers and fences wait for the watermark
	appendLSN   uint64
	durableLSN  uint64
	flushedLSN  uint64 // highest LSN handed to an in-flight or completed flush
	dirty       map[dirtyKey]dynamo.Key
	keys        map[string]keySpec
	fenceWaits  int   // fences currently waiting (skips linger)
	flushErr    error // sticky: a failed flush poisons the overlay
	closed      bool
	flushing    bool
	stats       Stats

	histDepth *hist.Histogram // unflushed ops observed at each append
	histBatch *hist.Histogram // rows per flushed batch (as a duration in ns units)
	histLag   *hist.Histogram // append→durable latency of the oldest row per batch
	oldestAt  time.Time       // when the oldest currently-dirty row was appended

	// entries and ops are the capture buffers, reused by every flush: one
	// flush is in flight at a time (flushLocked waits out the committer's),
	// and finishFlush zeroes ops so the buffer pins no post-image.
	entries []captureEntry
	ops     []dynamo.TxOp

	done chan struct{} // background committer exit
}

// New builds an overlay over base and warms the shadow with every existing
// base table (schemas and rows), so a reopened deployment's adoption checks
// and DAAL scans see the durable state. The caller must be the only writer
// of base for the overlay's lifetime.
func New(base storage.Backend, opts Options) (*Store, error) {
	if opts.Depth <= 0 {
		opts.Depth = DefaultDepth
	}
	p := &Store{
		base:   base,
		shadow: dynamo.NewStore(),
		opts:   opts,
		dirty:  make(map[dirtyKey]dynamo.Key),
		keys:   make(map[string]keySpec),
		done:   make(chan struct{}),
	}
	p.condWork = sync.NewCond(&p.mu)
	p.condDurable = sync.NewCond(&p.mu)
	for _, name := range base.TableNames() {
		if err := p.warm(name); err != nil {
			return nil, fmt.Errorf("pipeline: warming %s: %w", name, err)
		}
	}
	if !opts.ManualFlush {
		go p.committer()
	} else {
		close(p.done)
	}
	return p, nil
}

// MustNew is New, panicking on error — for setup code.
func MustNew(base storage.Backend, opts Options) *Store {
	p, err := New(base, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// warm mirrors one base table (schema + rows) into the shadow. Idempotent.
func (p *Store) warm(name string) error {
	if _, err := p.shadow.TableSchema(name); err == nil {
		return nil
	}
	schema, err := p.base.TableSchema(name)
	if err != nil {
		return err
	}
	if err := p.shadow.CreateTable(schema); err != nil {
		return err
	}
	p.keys[name] = keySpec{hash: schema.HashKey, sort: schema.SortKey}
	items, err := p.base.Scan(name, storage.QueryOpts{})
	if err != nil {
		return err
	}
	for _, it := range items {
		if err := p.shadow.Put(name, it, nil); err != nil {
			return err
		}
	}
	return nil
}

// SetHistograms installs telemetry histograms: depth is the unflushed-op
// count observed at each append (recorded as nanoseconds-shaped integers),
// batch the rows per flushed batch, lag the append→durable latency of each
// batch's oldest row. Any may be nil.
func (p *Store) SetHistograms(depth, batch, lag *hist.Histogram) {
	p.mu.Lock()
	p.histDepth, p.histBatch, p.histLag = depth, batch, lag
	p.mu.Unlock()
}

// Snapshot returns the current counters.
func (p *Store) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Lag reports the current watermark lag: speculated write operations not yet
// durable.
func (p *Store) Lag() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.appendLSN - p.durableLSN)
}

// Base returns the wrapped backend (tests audit durable state through it).
func (p *Store) Base() storage.Backend { return p.base }

// DynamoStore unwraps to the base's in-memory store when it is one, so
// storage.AsDynamo keeps working through the overlay (benches reach the
// store's modeled commit latency and shard layout this way).
func (p *Store) DynamoStore() *dynamo.Store {
	s, _ := storage.AsDynamo(p.base)
	return s
}

// spec returns table's key attribute names, resolving through the shadow on
// first use. Callers hold mu.
func (p *Store) spec(table string) (keySpec, error) {
	if ks, ok := p.keys[table]; ok {
		return ks, nil
	}
	schema, err := p.shadow.TableSchema(table)
	if err != nil {
		return keySpec{}, err
	}
	ks := keySpec{hash: schema.HashKey, sort: schema.SortKey}
	p.keys[table] = ks
	return ks, nil
}

// keyOf derives an item's primary key. Callers hold mu.
func (p *Store) keyOf(table string, it dynamo.Item) (dynamo.Key, error) {
	ks, err := p.spec(table)
	if err != nil {
		return dynamo.Key{}, err
	}
	k := dynamo.Key{Hash: it[ks.hash]}
	if ks.sort != "" {
		k.Sort = it[ks.sort]
	}
	return k, nil
}

// markDirty records a speculated row. Callers hold mu.
func (p *Store) markDirty(table string, key dynamo.Key) {
	if len(p.dirty) == 0 {
		p.oldestAt = time.Now()
	}
	p.dirty[dirtyKey{table: table, hash: dynamo.KeyOf(key.Hash), sort: dynamo.KeyOf(key.Sort)}] = key
}

// append runs one speculated write: apply against the shadow (which
// evaluates conditions with exact store semantics), mark the touched rows
// dirty, advance the append watermark, and hold the writer to the Depth
// bound. The condition-failure path charges nothing and dirties nothing —
// a failed conditional write has no durable effect to pipeline.
func (p *Store) append(apply func() error, touched func() ([]dirtyRow, error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.stuck(); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	rows, err := touched()
	if err != nil {
		// The shadow applied the write but the rows cannot be addressed —
		// unreachable for well-formed schemas; poison rather than silently
		// lose a mutation.
		p.flushErr = fmt.Errorf("pipeline: untrackable write: %w", err)
		p.condDurable.Broadcast()
		return p.flushErr
	}
	for _, r := range rows {
		p.markDirty(r.table, r.key)
	}
	p.appendLSN++
	p.stats.Appended++
	if h := p.histDepth; h != nil {
		h.Record(time.Duration(p.appendLSN - p.durableLSN))
	}
	if len(p.dirty) >= flushBatch {
		p.condWork.Signal()
	}
	for p.appendLSN-p.durableLSN >= uint64(p.opts.Depth) && p.flushErr == nil && !p.closed {
		if p.opts.ManualFlush {
			if err := p.flushLocked(); err != nil {
				return err
			}
			continue
		}
		p.condWork.Signal()
		p.condDurable.Wait()
	}
	return p.stuck()
}

// dirtyRow pairs a table with one touched key.
type dirtyRow struct {
	table string
	key   dynamo.Key
}

// stuck reports the sticky failure state. Callers hold mu.
func (p *Store) stuck() error {
	if p.flushErr != nil {
		return p.flushErr
	}
	if p.closed {
		return fmt.Errorf("pipeline: store is closed")
	}
	return nil
}

// captureEntry is one dirty row in capture order.
type captureEntry struct {
	dk  dirtyKey
	key dynamo.Key
}

// captureLocked drains the dirty set into a deterministic batch of
// unconditional post-image installs, in the reused ops buffer: the batch is
// valid until finishFlush. Callers hold mu.
func (p *Store) captureLocked() ([]dynamo.TxOp, uint64, time.Time, error) {
	target := p.appendLSN
	if len(p.dirty) == 0 {
		return nil, target, time.Time{}, nil
	}
	entries := p.entries[:0]
	for dk, key := range p.dirty {
		entries = append(entries, captureEntry{dk, key})
	}
	slices.SortFunc(entries, func(a, b captureEntry) int {
		if a.dk.before(b.dk) {
			return -1
		}
		if b.dk.before(a.dk) {
			return 1
		}
		return 0
	})
	var err error
	for _, e := range entries {
		it, ok, gerr := p.shadow.Get(e.dk.table, e.key)
		if err = gerr; err != nil {
			break
		}
		if ok {
			p.ops = append(p.ops, dynamo.TxOp{Table: e.dk.table, Put: it})
		} else {
			p.ops = append(p.ops, dynamo.TxOp{Table: e.dk.table, Key: e.key, Delete: true})
		}
	}
	clear(entries)
	p.entries = entries[:0]
	if err != nil {
		return nil, 0, time.Time{}, err
	}
	clear(p.dirty)
	return p.ops, target, p.oldestAt, nil
}

// flushLocked performs one capture+install round while holding mu (the
// ManualFlush path: deterministic, no goroutine handoff). The base write
// happens under the overlay mutex, which is acceptable for the simulator's
// one-task-at-a-time world and for fenced single-writer tests.
func (p *Store) flushLocked() error {
	// Never overlap the background committer's in-flight install: a batch
	// captured here would carry newer post-images of rows the in-flight
	// batch also holds, and whichever base write lands last would win —
	// letting a stale image overwrite a newer one.
	for p.flushing && p.flushErr == nil {
		p.condDurable.Wait()
	}
	ops, target, oldest, err := p.captureLocked()
	if err == nil && len(ops) > 0 {
		err = p.base.TransactWrite(ops)
	}
	p.finishFlush(len(ops), target, oldest, err)
	return p.flushErr
}

// finishFlush records the outcome of one flush round of rows installs and
// zeroes the capture buffer. Callers hold mu.
func (p *Store) finishFlush(rows int, target uint64, oldest time.Time, err error) {
	clear(p.ops)
	p.ops = p.ops[:0]
	if err != nil {
		if p.flushErr == nil {
			p.flushErr = fmt.Errorf("pipeline: flush failed, overlay poisoned: %w", err)
		}
	} else {
		if target > p.durableLSN {
			p.durableLSN = target
		}
		if rows > 0 {
			p.stats.Flushes++
			p.stats.FlushedRows += int64(rows)
			if int64(rows) > p.stats.MaxBatch {
				p.stats.MaxBatch = int64(rows)
			}
			if ds, ok := storage.AsDynamo(p.base); ok {
				p.stats.ModeledFlushTime += ds.ModelCommitLatency(rows)
			}
			if h := p.histBatch; h != nil {
				h.Record(time.Duration(rows))
			}
			if h := p.histLag; h != nil && !oldest.IsZero() {
				h.Record(time.Since(oldest))
			}
		}
	}
	p.condDurable.Broadcast()
}

// committer is the background flush loop: wait for dirty rows, linger to
// let a batch fill (skipped when a fence is waiting or flushBatch is reached),
// capture under the mutex, install on the base outside it.
func (p *Store) committer() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.dirty) == 0 && !p.closed && p.flushErr == nil {
			p.condWork.Wait()
		}
		if p.flushErr != nil || (p.closed && len(p.dirty) == 0) {
			p.mu.Unlock()
			return
		}
		linger := flushLinger
		if p.fenceWaits > 0 || len(p.dirty) >= flushBatch ||
			p.appendLSN-p.durableLSN >= uint64(p.opts.Depth) || p.closed {
			linger = 0
		}
		p.mu.Unlock()
		if linger > 0 {
			time.Sleep(linger)
		}
		p.mu.Lock()
		ops, target, oldest, err := p.captureLocked()
		p.flushing = true
		p.mu.Unlock()
		if err == nil && len(ops) > 0 {
			err = p.base.TransactWrite(ops)
		}
		p.mu.Lock()
		p.flushing = false
		p.finishFlush(len(ops), target, oldest, err)
		p.mu.Unlock()
	}
}

// Fence blocks until every write appended before the call is durable on the
// base backend — the externally-visible-effect barrier. It implements the
// optional storage.Fencer seam the runtime probes before replying to a
// client.
func (p *Store) Fence() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Fences++
	target := p.appendLSN
	waited := false
	for p.durableLSN < target && p.flushErr == nil {
		if !waited {
			waited = true
			p.stats.FenceWaits++
		}
		if p.opts.ManualFlush {
			if err := p.flushLocked(); err != nil {
				return err
			}
			continue
		}
		p.fenceWaits++
		p.condWork.Signal()
		p.condDurable.Wait()
		p.fenceWaits--
	}
	return p.flushErr
}

// FlushStep performs one synchronous flush round if anything is dirty and
// reports whether a batch was written. Under ManualFlush this is the
// committer: the simulator schedules it as a first-class task, making the
// speculation layer's reorderings part of the explored schedule.
func (p *Store) FlushStep() (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.stuck(); err != nil {
		return false, err
	}
	if len(p.dirty) == 0 {
		return false, nil
	}
	before := p.stats.Flushes
	if err := p.flushLocked(); err != nil {
		return false, err
	}
	return p.stats.Flushes > before, nil
}

// Close fences the remaining speculation and stops the committer. The
// overlay is unusable afterwards.
func (p *Store) Close() error {
	err := p.Fence()
	p.mu.Lock()
	p.closed = true
	p.condWork.Broadcast()
	p.condDurable.Broadcast()
	p.mu.Unlock()
	<-p.done
	return err
}

// DropAndClose discards every unflushed write and stops the committer
// without touching the base — the crash model: a worker dying loses exactly
// the speculation above the durability watermark, never a torn interleaving
// of it. Tests reopen the base afterwards and must observe a consistent
// log prefix.
func (p *Store) DropAndClose() {
	p.mu.Lock()
	clear(p.dirty)
	p.durableLSN = p.appendLSN // nothing left to flush
	p.closed = true
	p.condWork.Broadcast()
	p.condDurable.Broadcast()
	p.mu.Unlock()
	<-p.done
}

// --- storage.Backend: table management ---

// CreateTable registers the table on the base synchronously (table creation
// is setup-path, not hot-path) and mirrors it into the shadow. On
// ErrTableExists the shadow is warmed from the durable rows and the error
// is returned unchanged, so the runtime's adoption logic proceeds exactly
// as it would against the base.
func (p *Store) CreateTable(schema storage.Schema) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.stuck(); err != nil {
		return err
	}
	err := p.base.CreateTable(schema)
	switch {
	case err == nil:
		if serr := p.shadow.CreateTable(schema); serr != nil {
			p.flushErr = fmt.Errorf("pipeline: shadow diverged on CreateTable(%s): %w", schema.Name, serr)
			return p.flushErr
		}
		p.keys[schema.Name] = keySpec{hash: schema.HashKey, sort: schema.SortKey}
		return nil
	case errors.Is(err, storage.ErrTableExists):
		if werr := p.warm(schema.Name); werr != nil {
			return fmt.Errorf("pipeline: warming existing table %s: %w", schema.Name, werr)
		}
		return err
	default:
		return err
	}
}

// DeleteTable fences the overlay (dirty rows of other tables flush), then
// drops the table from both stores.
func (p *Store) DeleteTable(name string) error {
	if err := p.Fence(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.base.DeleteTable(name); err != nil {
		return err
	}
	delete(p.keys, name)
	return p.shadow.DeleteTable(name)
}

// TableNames lists tables (shadow view; identical to the base by
// construction).
func (p *Store) TableNames() []string { return p.shadow.TableNames() }

// TableShards reports the shard count of an existing table.
func (p *Store) TableShards(name string) (int, error) { return p.shadow.TableShards(name) }

// TableSchema returns an existing table's schema.
func (p *Store) TableSchema(name string) (storage.Schema, error) { return p.shadow.TableSchema(name) }

// TableBytes reports the table's speculative (read-your-own-writes)
// footprint.
func (p *Store) TableBytes(name string) (int, error) { return p.shadow.TableBytes(name) }

// TableItemCount reports the number of live rows in the speculative view.
func (p *Store) TableItemCount(name string) (int, error) { return p.shadow.TableItemCount(name) }

// --- storage.Backend: reads (all from the shadow: read-your-own-writes,
// no round trip) ---

// Get returns the speculative row at key.
func (p *Store) Get(table string, key storage.Key) (storage.Item, bool, error) {
	return p.shadow.Get(table, key)
}

// GetProj is Get with a projection.
func (p *Store) GetProj(table string, key storage.Key, proj []storage.Path) (storage.Item, bool, error) {
	return p.shadow.GetProj(table, key, proj)
}

// Query returns one partition's speculative rows in sort order.
func (p *Store) Query(table string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	return p.shadow.Query(table, hash, opts)
}

// QueryIndex queries a secondary index of the speculative view.
func (p *Store) QueryIndex(table, index string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	return p.shadow.QueryIndex(table, index, hash, opts)
}

// Scan walks the whole speculative table.
func (p *Store) Scan(table string, opts storage.QueryOpts) ([]storage.Item, error) {
	return p.shadow.Scan(table, opts)
}

// --- storage.Backend: writes (speculated) ---

// Put speculates a conditional put.
func (p *Store) Put(table string, item storage.Item, cond storage.Cond) error {
	return p.append(
		func() error { return p.shadow.Put(table, item, cond) },
		func() ([]dirtyRow, error) {
			k, err := p.keyOf(table, item)
			if err != nil {
				return nil, err
			}
			return []dirtyRow{{table, k}}, nil
		},
	)
}

// Update speculates a conditional update.
func (p *Store) Update(table string, key storage.Key, cond storage.Cond, updates ...storage.Update) error {
	return p.append(
		func() error { return p.shadow.Update(table, key, cond, updates...) },
		func() ([]dirtyRow, error) { return []dirtyRow{{table, key}}, nil },
	)
}

// Delete speculates a conditional delete.
func (p *Store) Delete(table string, key storage.Key, cond storage.Cond) error {
	return p.append(
		func() error { return p.shadow.Delete(table, key, cond) },
		func() ([]dirtyRow, error) { return []dirtyRow{{table, key}}, nil },
	)
}

// TransactWrite speculates a multi-row transaction: conditions evaluate
// against the speculative state with exact store semantics (per-op reasons
// included), and on success every mutated row joins the current batch — the
// transaction flushes atomically with everything before it.
func (p *Store) TransactWrite(ops []storage.TxOp) error {
	return p.append(
		func() error { return p.shadow.TransactWrite(ops) },
		func() ([]dirtyRow, error) {
			rows := make([]dirtyRow, 0, len(ops))
			for _, op := range ops {
				if op.Check {
					continue
				}
				key := op.Key
				if op.Put != nil {
					k, err := p.keyOf(op.Table, op.Put)
					if err != nil {
						return nil, err
					}
					key = k
				}
				rows = append(rows, dirtyRow{op.Table, key})
			}
			return rows, nil
		},
	)
}

// Metrics exposes the BASE backend's counters: the durable traffic is what
// benchmarks and operators account for (the shadow's zero-latency ops are
// free by design). The overlay's own accounting lives in Snapshot.
func (p *Store) Metrics() *storage.Metrics { return p.base.Metrics() }

// Watch subscribes to the BASE backend's commit stream — the durability
// watermark's event source. Speculative writes live only in the shadow and
// land on the base when their batch flushes, so subscribers wake exactly
// when a write becomes durable, never while it is still speculative: the
// overlay gets durable-only watch semantics by delegation. Returns an error
// when the base backend has no watch support (the capability probe in
// storage.Watch turns that into a poll fallback).
func (p *Store) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	w, ok := p.base.(storage.Watcher)
	if !ok {
		return nil, fmt.Errorf("pipeline: base backend %T does not support Watch", p.base)
	}
	return w.Watch(table, hash)
}

// Compile-time seam checks.
var (
	_ storage.Backend = (*Store)(nil)
	_ storage.Watcher = (*Store)(nil)
)
