// Package walstore is the durable storage backend: the same linearizable,
// conditional-write NoSQL surface as internal/dynamo (it implements
// storage.Backend), with every committed mutation journaled to a segmented,
// CRC-checked write-ahead log on disk before the operation returns.
//
// The design is log-structured state-machine replication onto the local
// filesystem, the shape Netherite ("Serverless Workflows with Durable
// Functions and Netherite") uses per partition:
//
//   - Reads are served from an in-memory materialized store (an
//     internal/dynamo.Store used as the memtable).
//   - Conditional mutations evaluate their condition against the memtable
//     under a single commit mutex, and — only when they actually commit —
//     append a logical record (post-image puts, deletes, update
//     expressions; conditions are never journaled, they were already
//     decided) to the WAL in exactly commit order.
//   - Durability waits are group-committed: the first waiter fsyncs once
//     for every record appended so far and later waiters batch behind it
//     (Options.Sync selects batched, per-record, or no fsync), amortizing
//     the dominant cost of the write path the way the in-memory store's
//     group-commit batcher amortizes its latch-and-flush.
//   - Snapshots compact the log: a full image of the store is durably
//     written, the log rotates, and older segments are deleted.
//   - Open replays newest-snapshot + WAL tail, truncating at the first
//     torn or corrupt record — recovery to the last durable prefix — so a
//     Beldi deployment reopened over the directory finds its intent
//     tables, logs and DAAL chains exactly as they committed, and the
//     intent collector finishes every in-flight workflow exactly once.
//
// Fsck audits a (closed) directory: snapshot integrity, per-record CRCs,
// and sequence continuity.
package walstore

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/storage"
	"repro/internal/storage/codec"
)

// SyncPolicy selects when committed records are fsynced.
type SyncPolicy int

const (
	// SyncBatched (the default) group-commits fsyncs: one flush covers
	// every record appended since the previous flush.
	SyncBatched SyncPolicy = iota
	// SyncEach fsyncs once per committed record — batching off, the
	// unamortized baseline.
	SyncEach
	// SyncNone never fsyncs on commit (the OS page cache is the only
	// durability); Close still flushes. For tests and benchmarks.
	SyncNone
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatched:
		return "batched"
	case SyncEach:
		return "each"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configure Open.
type Options struct {
	// SegmentBytes caps a WAL segment before rotation. 0 means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// AutoCompactBytes triggers a snapshot + log compaction after this many
	// WAL bytes accumulate past the last snapshot. 0 means
	// DefaultAutoCompactBytes; negative disables auto-compaction (Compact
	// still works).
	AutoCompactBytes int64
	// Sync selects the fsync policy for committed records.
	Sync SyncPolicy
	// FS is the file system the store's directory lives in. nil means OS.
	FS FS
}

// Defaults for Options zero values.
const (
	DefaultSegmentBytes     = 4 << 20
	DefaultAutoCompactBytes = 64 << 20
)

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.AutoCompactBytes == 0 {
		o.AutoCompactBytes = DefaultAutoCompactBytes
	}
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

// Stats count WAL activity. All fields are updated atomically and may be
// read while the store is live.
type Stats struct {
	// Records and BytesAppended count framed records appended to the log.
	Records       atomic.Int64
	BytesAppended atomic.Int64
	// Fsyncs counts file syncs (commit path, rotation, close). SyncBatches
	// counts commit-path fsyncs that advanced the durable watermark, and
	// BatchedRecords the records they made durable; their ratio is the
	// group-commit amortization factor.
	Fsyncs         atomic.Int64
	SyncBatches    atomic.Int64
	BatchedRecords atomic.Int64
	// Segments counts rotations; Snapshots counts completed compactions.
	Segments  atomic.Int64
	Snapshots atomic.Int64
	// RecoveredRecords is the number of log records replayed by Open;
	// TruncatedBytes the tail bytes discarded as torn or corrupt.
	RecoveredRecords atomic.Int64
	TruncatedBytes   atomic.Int64
}

// StatsView is a point-in-time copy for reporting — the common snapshot
// shape shared with core.Stats, dynamo.Metrics, and the other subsystems.
type StatsView struct {
	Records, BytesAppended              int64
	Fsyncs, SyncBatches, BatchedRecords int64
	Segments, Snapshots                 int64
	RecoveredRecords, TruncatedBytes    int64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsView {
	return StatsView{
		Records:          s.Records.Load(),
		BytesAppended:    s.BytesAppended.Load(),
		Fsyncs:           s.Fsyncs.Load(),
		SyncBatches:      s.SyncBatches.Load(),
		BatchedRecords:   s.BatchedRecords.Load(),
		Segments:         s.Segments.Load(),
		Snapshots:        s.Snapshots.Load(),
		RecoveredRecords: s.RecoveredRecords.Load(),
		TruncatedBytes:   s.TruncatedBytes.Load(),
	}
}

// Store is the WAL-backed storage backend. It is safe for concurrent use.
// Reads go straight to the in-memory materialized state; mutations are
// serialized by a commit mutex (condition evaluation, memtable apply, and
// log append form one atomic step, so log order equals commit order) and
// return once their record is durable per the sync policy.
type Store struct {
	storage.Calls // the typed data calls, each one Do

	dir  string
	opts Options

	logMu     sync.Mutex // serializes mutations: apply + append + (auto)compact
	mem       *dynamo.Store
	memDo     storage.Doer // mem's data plane
	schemas   map[string]dynamo.Schema
	seq       uint64 // last assigned record sequence
	sinceSnap int64  // WAL bytes appended since the last snapshot
	closed    bool
	// enc encodes every record, under logMu. walWriter.append writes
	// synchronously, so a frame is dead — and enc reset — when it returns.
	enc *codec.Encoder

	w     *walWriter
	stats Stats

	// watch is this backend's commit-stream hub. Notifications fire after
	// waitDurable returns — the post-fsync point — never at memtable apply:
	// a subscriber of a durable backend must not wake for a write that a
	// crash could still erase. (The memtable's own hub has no subscribers;
	// consumers hold the walstore Backend and Watch through it.)
	watch *dynamo.WatchHub
}

var (
	_ storage.Backend = (*Store)(nil)
	_ storage.Doer    = (*Store)(nil)
	_ storage.Watcher = (*Store)(nil)
)

// Open opens (creating if needed) the store rooted at dir, recovering the
// newest snapshot plus the WAL tail. Torn or corrupt tail records — a
// process killed mid-write — are discarded and the log is repaired to the
// last durable prefix.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, enc: codec.NewEncoder(512)}
	s.w = newWALWriter(dir, opts, &s.stats)
	s.watch = dynamo.NewWatchHub(nil)

	if err := removeSnapshotTemps(fsys, dir); err != nil {
		return nil, fmt.Errorf("walstore: open %s: %w", dir, err)
	}
	snapSeq, schemas, mem, _, err := loadNewestSnapshot(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("walstore: open %s: %w", dir, err)
	}
	s.Calls = storage.Calls{Doer: s}
	s.mem, s.memDo = mem, storage.DoerOf(mem)
	s.schemas = schemas
	s.seq = snapSeq

	segNames, segSeqs, err := listSeqFiles(fsys, dir, segPrefix, segSuffix)
	if err != nil {
		return nil, fmt.Errorf("walstore: open %s: %w", dir, err)
	}
	// Replay every segment holding records past the snapshot, in order.
	// The first torn/corrupt record ends the durable prefix: the segment is
	// truncated there and any later segments (which could only hold records
	// past the damage) are deleted.
	var tailFirst uint64
	var tailSize int64
	for i, name := range segNames {
		first := segSeqs[i]
		if i+1 < len(segNames) && segSeqs[i+1] <= snapSeq+1 {
			continue // entirely covered by the snapshot; compaction leftovers
		}
		if first != 0 && first > s.seq+1 {
			return nil, fmt.Errorf("walstore: open %s: missing segment before %s (have seq %d)", dir, name, s.seq)
		}
		path := filepath.Join(dir, name)
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("walstore: open %s: %w", dir, err)
		}
		validEnd, lastSeq, corrupt, err := scanSegment(data, first, snapSeq, func(r record) error {
			s.stats.RecoveredRecords.Add(1)
			return s.applyRecord(r)
		})
		if err != nil {
			return nil, fmt.Errorf("walstore: open %s: replay %s: %w", dir, name, err)
		}
		if lastSeq > s.seq {
			s.seq = lastSeq
		}
		tailFirst, tailSize = first, validEnd
		if corrupt != nil {
			s.stats.TruncatedBytes.Add(int64(len(data)) - validEnd)
			if err := fsys.Truncate(path, validEnd); err != nil {
				return nil, fmt.Errorf("walstore: open %s: repair %s: %w", dir, name, err)
			}
			for _, later := range segNames[i+1:] {
				if err := fsys.Remove(filepath.Join(dir, later)); err != nil {
					return nil, fmt.Errorf("walstore: open %s: discard %s: %w", dir, later, err)
				}
			}
			if err := fsys.SyncDir(dir); err != nil {
				return nil, fmt.Errorf("walstore: open %s: repair: %w", dir, err)
			}
			break
		}
	}
	if err := s.w.openTail(tailFirst, s.seq, tailSize); err != nil {
		return nil, fmt.Errorf("walstore: open %s: %w", dir, err)
	}
	return s, nil
}

// applyRecord applies one replayed record to the memtable.
func (s *Store) applyRecord(r record) error {
	switch r.typ {
	case recCreateTable:
		if err := s.mem.CreateTable(r.schema); err != nil {
			return err
		}
		s.schemas[r.schema.Name] = r.schema
		return nil
	case recDeleteTable:
		if err := s.mem.DeleteTable(r.name); err != nil {
			return err
		}
		delete(s.schemas, r.name)
		return nil
	case recCommit:
		for _, op := range r.ops {
			var err error
			switch {
			case op.Put != nil:
				err = s.mem.Put(op.Table, op.Put, nil)
			case op.Delete:
				err = s.mem.Delete(op.Table, op.Key, nil)
			default:
				err = s.mem.Update(op.Table, op.Key, nil, op.Updates...)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("walstore: unknown record type %d", r.typ)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// WAL exposes the store's WAL activity counters.
func (s *Store) WAL() *Stats { return &s.stats }

// SetFsyncHistogram observes every tail-segment fsync's duration in h —
// telemetry's "wal.fsync" latency distribution. Pass nil to detach.
func (s *Store) SetFsyncHistogram(h *hist.Histogram) { s.w.fsyncHist.Store(h) }

// DynamoStore returns the in-memory materialized state, which is where the
// backend's traffic metrics live (storage.AsDynamo unwraps through this).
func (s *Store) DynamoStore() *dynamo.Store { return s.mem }

// Metrics exposes the backend's traffic counters. Recovery replay and
// snapshot scans count here too (they are real work the backend performs).
func (s *Store) Metrics() *dynamo.Metrics { return s.mem.Metrics() }

// Close flushes and closes the log. The store must not be used afterwards.
func (s *Store) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.watch.CloseAll()
	return s.w.close()
}

// errClosed reports use-after-Close.
var errClosed = fmt.Errorf("walstore: store is closed")

// logAndWait appends rec under logMu (already held), releases it, and waits
// for durability. It also triggers auto-compaction at the configured
// threshold. Callers must not hold logMu after this returns.
func (s *Store) logAndWait(rec record) error {
	frame, err := encodeRecord(s.enc, rec)
	if err != nil {
		err = s.w.fail(err) // the memtable already holds rec, so the store is ahead of its log
	} else {
		err = s.w.append(rec.seq, frame)
	}
	n := int64(len(frame))
	s.enc.Reset() // append wrote the frame synchronously: it is dead
	if err != nil {
		s.logMu.Unlock()
		return err
	}
	s.sinceSnap += n
	if s.opts.AutoCompactBytes > 0 && s.sinceSnap > s.opts.AutoCompactBytes {
		if err := s.compactLocked(); err != nil {
			s.logMu.Unlock()
			return err
		}
	}
	seq := rec.seq
	s.logMu.Unlock()
	return s.w.waitDurable(seq)
}

// mutate runs apply (a memtable mutation) under logMu and, when it commits,
// journals rec (given its sequence number here) and waits for durability.
// Condition failures and validation errors surface without touching the
// log.
func (s *Store) mutate(rec record, apply func() error) error {
	s.logMu.Lock()
	if s.closed {
		s.logMu.Unlock()
		return errClosed
	}
	if err := s.w.sticky(); err != nil {
		s.logMu.Unlock()
		return err
	}
	if err := apply(); err != nil {
		s.logMu.Unlock()
		return err
	}
	s.seq++
	rec.seq = s.seq
	var buf [4]watchNote // most records carry one op: no slice per commit
	notes := s.watchNotesLocked(rec, buf[:0])
	if err := s.logAndWait(rec); err != nil {
		return err
	}
	for _, n := range notes {
		s.watch.Notify(n.table, n.hash)
	}
	return nil
}

// watchNote is one pending commit notification, resolved under logMu (the
// schema map is needed to find a put's hash-key value) and fired after the
// record's fsync.
type watchNote struct {
	table string
	hash  dynamo.Value
}

// watchNotesLocked appends to notes the commit notifications a record will
// owe once durable. Caller holds logMu. Nothing is appended when nobody
// watches.
func (s *Store) watchNotesLocked(rec record, notes []watchNote) []watchNote {
	if !s.watch.Active() || rec.typ != recCommit {
		return notes
	}
	for _, op := range rec.ops {
		switch {
		case op.Check: // wrote nothing, so wakes nobody
		case op.Put != nil:
			sch, ok := s.schemas[op.Table]
			if !ok {
				continue
			}
			notes = append(notes, watchNote{table: op.Table, hash: op.Put[sch.HashKey]})
		default:
			notes = append(notes, watchNote{table: op.Table, hash: op.Key.Hash})
		}
	}
	return notes
}

// Watch subscribes to table's commit stream; events fire only after the
// write that caused them is durable on disk (post-fsync), so a wakeup never
// precedes the durability the backend's write return promises.
func (s *Store) Watch(table string, hash dynamo.Value) (dynamo.Subscription, error) {
	if _, err := s.mem.TableSchema(table); err != nil {
		return nil, err
	}
	return s.watch.Subscribe(table, hash), nil
}

// CreateTable registers a new table.
func (s *Store) CreateTable(schema dynamo.Schema) error {
	return s.mutate(record{typ: recCreateTable, schema: schema}, func() error {
		if err := s.mem.CreateTable(schema); err != nil {
			return err
		}
		s.schemas[schema.Name] = schema
		return nil
	})
}

// MustCreateTable is CreateTable, panicking on error; for setup code.
func (s *Store) MustCreateTable(schema dynamo.Schema) {
	if err := s.CreateTable(schema); err != nil {
		panic(err)
	}
}

// DeleteTable drops a table and its data.
func (s *Store) DeleteTable(name string) error {
	return s.mutate(record{typ: recDeleteTable, name: name}, func() error {
		if err := s.mem.DeleteTable(name); err != nil {
			return err
		}
		delete(s.schemas, name)
		return nil
	})
}

// Do implements storage.Doer. A read is the memtable's, once readGuard lets
// it through. A write that commits is journaled as one record of the rows
// it wrote — a put's post-image, a delete, an update expression (replayed
// deterministically against the same base state), or a whole transaction,
// so recovery replays it all-or-nothing too.
func (s *Store) Do(op storage.Op) (storage.Result, error) {
	if !op.Kind.IsWrite() {
		if err := s.readGuard(); err != nil {
			return storage.Result{}, err
		}
		return s.memDo.Do(op)
	}
	if op.Kind == dynamo.OpTxWrite && len(op.Tx) == 0 {
		return storage.Result{}, nil
	}
	var one [1]dynamo.TxOp
	return storage.Result{}, s.mutate(record{typ: recCommit, ops: op.TxOps(&one)}, func() error {
		_, err := s.memDo.Do(op)
		return err
	})
}

// Compact writes a durable snapshot of the whole store, rotates the log,
// and deletes every older segment and snapshot.
func (s *Store) Compact() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := s.w.sticky(); err != nil {
		return err
	}
	return s.compactLocked()
}

// compactLocked is Compact under an already-held logMu.
func (s *Store) compactLocked() error {
	data, err := encodeSnapshot(s.seq, s.schemas, s.mem)
	if err != nil {
		return err
	}
	if err := s.w.writeSnapshotFile(s.seq, data); err != nil {
		return s.w.fail(err)
	}
	// Rotate so the tail segment starts past the snapshot; then every other
	// segment is fully covered and can go. When the tail already starts
	// there — a repeated Compact with no commits in between, or a
	// reopened directory compacted just before close — the segment to
	// rotate to is the (empty) tail itself, so rotation is skipped.
	if s.w.firstSeq != s.seq+1 {
		if err := s.w.rotate(s.seq + 1); err != nil {
			return s.w.fail(err)
		}
	}
	fsys := s.opts.FS
	segNames, _, err := listSeqFiles(fsys, s.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	for _, name := range segNames {
		if name != segName(s.seq+1) {
			_ = fsys.Remove(filepath.Join(s.dir, name))
		}
	}
	snapNames, _, err := listSeqFiles(fsys, s.dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for _, name := range snapNames {
		if name != snapName(s.seq) {
			_ = fsys.Remove(filepath.Join(s.dir, name))
		}
	}
	_ = fsys.SyncDir(s.dir) // a lost unlink only leaves a covered file, which Open skips
	s.sinceSnap = 0
	s.stats.Snapshots.Add(1)
	return nil
}

// --- read path: straight to the materialized state ---

// readGuard fails reads on a poisoned store. A mutation whose memtable
// apply succeeded but whose log append or fsync failed has left the
// in-memory state ahead of the durable log; serving such state would hand
// callers rows that were reported as errors and will vanish at the next
// Open, so once the WAL is broken the whole store is.
func (s *Store) readGuard() error { return s.w.sticky() }

// TableNames lists tables in sorted order.
func (s *Store) TableNames() []string { return s.mem.TableNames() }

// TableShards reports the shard count of an existing table.
func (s *Store) TableShards(name string) (int, error) { return s.mem.TableShards(name) }

// TableSchema returns an existing table's schema.
func (s *Store) TableSchema(name string) (dynamo.Schema, error) { return s.mem.TableSchema(name) }

// TableBytes reports the table's current storage footprint.
func (s *Store) TableBytes(name string) (int, error) { return s.mem.TableBytes(name) }

// TableItemCount reports the number of live rows.
func (s *Store) TableItemCount(name string) (int, error) { return s.mem.TableItemCount(name) }
