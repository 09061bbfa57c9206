package dynamo

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Store is the in-memory NoSQL service. It is safe for concurrent use; each
// operation is linearizable, and conditional updates are atomic within a
// row, which is the atomicity scope Beldi assumes of DynamoDB (§2.2).
//
// Internally each table's partitions are hash-distributed across a number
// of lock-striped shards (WithShards / Schema.Shards; default 1, the seed's
// single-latch behavior), and conditional writes landing on the same shard
// can be coalesced into group-commit batches (WithGroupCommit) — the
// Netherite-style substrate shape that removes the global lock from Beldi's
// hot logging path. See ARCHITECTURE.md.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*table

	defaultShards int
	groupCommit   bool

	latency LatencyModel
	metrics Metrics
	watch   *WatchHub
}

// Option configures a Store.
type Option func(*Store)

// WithLatency installs a latency model, fixed for the store's life; the
// default is ZeroLatency.
func WithLatency(m LatencyModel) Option {
	return func(s *Store) { s.latency = m }
}

// WithShards sets the default shard count for tables created without an
// explicit Schema.Shards. 1 (the default) reproduces the seed's
// one-latch-per-table behavior exactly.
func WithShards(n int) Option {
	return func(s *Store) {
		if n >= 1 {
			s.defaultShards = n
		}
	}
}

// WithGroupCommit switches on the group-commit write path for the store's
// life: conditional writes landing on the same shard while a batch is in
// flight are applied together inside one critical section, amortizing the
// latch acquisition and the commit flush. Each batched op still evaluates its
// own condition against the then-current row, so observable semantics are
// unchanged.
func WithGroupCommit(on bool) Option {
	return func(s *Store) { s.groupCommit = on }
}

// NewStore creates an empty store.
func NewStore(opts ...Option) *Store {
	s := &Store{
		tables:        make(map[string]*table),
		latency:       ZeroLatency{},
		defaultShards: DefaultShards,
	}
	s.watch = NewWatchHub(&s.metrics)
	for _, o := range opts {
		o(s)
	}
	return s
}

// Metrics exposes the store's traffic counters.
func (s *Store) Metrics() *Metrics { return &s.metrics }

// ModelCommitLatency reports what the installed latency model charges, while
// the owning shard's write latch is held, for committing a batch of ops
// operations — the same per-batch cost TransactWrite pays once inside its
// critical section (see shard.commitSleep). It returns 0 when the model does
// not implement CommitLatencyModel. Commit-pipelining layers use this to
// attribute modeled flush time to their batches so simulated and wall-clock
// sweeps agree on batch-size amortization.
func (s *Store) ModelCommitLatency(ops int) time.Duration {
	if m, ok := s.latency.(CommitLatencyModel); ok {
		return m.CommitLatency(ops)
	}
	return 0
}

// DefaultShards returns the store's default per-table shard count.
func (s *Store) DefaultShards() int { return s.defaultShards }

// TableShards reports the shard count of an existing table.
func (s *Store) TableShards(name string) (int, error) {
	t, err := s.table(name)
	if err != nil {
		return 0, err
	}
	return len(t.shards), nil
}

// TableSchema returns the schema of an existing table, with Shards set to
// the effective stripe count (the layout is fixed at creation, so a schema
// created with Shards=0 reports the default it resolved to).
func (s *Store) TableSchema(name string) (Schema, error) {
	t, err := s.table(name)
	if err != nil {
		return Schema{}, err
	}
	sch := t.schema
	sch.Shards = len(t.shards)
	sch.Indexes = append([]IndexSchema(nil), t.schema.Indexes...)
	return sch, nil
}

// CreateTable registers a new table.
func (s *Store) CreateTable(schema Schema) error {
	if schema.Name == "" || schema.HashKey == "" {
		return fmt.Errorf("dynamo: CreateTable: name and hash key are required")
	}
	if schema.Shards < 0 || schema.Shards > MaxShards {
		return fmt.Errorf("dynamo: CreateTable: shard count %d outside [0, %d]", schema.Shards, MaxShards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[schema.Name]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, schema.Name)
	}
	s.tables[schema.Name] = newTable(schema, s.defaultShards)
	return nil
}

// MustCreateTable is CreateTable, panicking on error; for setup code.
func (s *Store) MustCreateTable(schema Schema) {
	if err := s.CreateTable(schema); err != nil {
		panic(err)
	}
}

// DeleteTable drops a table and its data.
func (s *Store) DeleteTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	delete(s.tables, name)
	return nil
}

func (s *Store) table(name string) (*table, error) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

func (s *Store) charge(op OpKind, items, bytes int) {
	s.metrics.Ops[op].Add(1)
	s.metrics.BytesRead.Add(int64(bytes))
	if d := s.latency.OpLatency(op, items, bytes); d > 0 {
		sleep(d)
	}
}

// Get returns the item at key (strongly consistent read): an attribute map
// of the caller's own whose values are shared with the store (see Item).
func (s *Store) Get(tableName string, key Key) (Item, bool, error) {
	return s.GetProj(tableName, key, nil)
}

// GetProj is Get with a projection applied server-side, so only the
// projected bytes count as response traffic. A nil projection is the whole
// row.
func (s *Store) GetProj(tableName string, key Key, proj []Path) (Item, bool, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, false, err
	}
	sh := t.shardOf(key)
	sh.mu.RLock()
	var out Item
	if r := sh.get(key); r != nil {
		out = project(r.attrs, proj)
	}
	sh.mu.RUnlock()
	bytes := 0
	if out != nil {
		bytes = out.Size()
	}
	s.charge(OpGet, 1, bytes)
	return out, out != nil, nil
}

// write is one single-row conditional write — exactly one of put, updates
// or del — and, once applied, its outcome. Put, Update and Delete build one
// on their stack; only the group-commit queue copies it to the heap.
type write struct {
	key     Key
	cond    Cond
	put     attrs    // replace the row with these attributes, already the store's own
	updates []Update // or upsert the row and apply these
	del     bool     // or remove the row

	err        error
	condFailed bool
	written    int // bytes of the row installed; a put arrives with it set
}

// apply runs the write against the current row, leaving the row exactly as
// it was when the condition fails, an update cannot be applied or the result
// is over the size cap: the next row is built beside the current one, whose
// values are shared and never written. Caller holds sh.mu.
func (w *write) apply(sh *shard) {
	t := sh.t
	cur := sh.get(w.key)
	if w.cond != nil && !evalAgainst(w.cond, cur) {
		w.err = condFailure(t.schema.Name, w.key, w.cond)
		w.condFailed = true
		return
	}
	switch {
	case w.del:
		sh.delete(w.key)
	case w.put != nil:
		sh.put(w.key, w.put)
	default:
		var next attrs
		if next, w.err = t.updated(cur, w.key, w.updates); w.err != nil {
			return
		}
		size := next.size()
		if size > t.maxSize {
			w.err = fmt.Errorf("%w: table %s key %s (%d bytes)", ErrItemTooLarge, t.schema.Name, w.key, size)
			return
		}
		sh.put(w.key, next)
		w.written = size
	}
}

// commit applies w to its shard and accounts for the outcome.
func (s *Store) commit(op OpKind, t *table, w *write) error {
	s.applyWrite(t.shardOf(w.key), w)
	if w.err != nil {
		if w.condFailed {
			s.metrics.CondFailures.Add(1)
		}
		s.charge(op, 1, 0)
		return w.err
	}
	s.metrics.BytesWritten.Add(int64(w.written))
	s.notifyCommit(t.schema.Name, w.key.Hash)
	s.charge(op, 1, 0)
	return nil
}

// Put installs item, replacing any existing row, if cond holds against the
// current row (or against the absent row). A nil cond always passes. The
// store keeps the attributes in a list of its own — the caller may go on
// editing item — but shares the values in it, which must not be written
// afterwards (see Value).
func (s *Store) Put(tableName string, item Item, cond Cond) error {
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	key, err := t.schema.KeyOf(item)
	if err != nil {
		return err
	}
	size := item.Size()
	if size > t.maxSize {
		return fmt.Errorf("%w: table %s key %s (%d bytes)", ErrItemTooLarge, tableName, key, size)
	}
	w := write{key: key, cond: cond, put: attrsOf(item), written: size}
	return s.commit(OpPut, t, &w)
}

// Update applies the update actions to the row at key if cond holds. Like
// DynamoDB's UpdateItem it upserts: a missing row is created (with just the
// key attributes) before the updates run, provided the condition passes
// against the absent row. Returns ErrConditionFailed when the condition is
// false and ErrItemTooLarge when the result would exceed the row cap (the
// row is left unchanged in both cases).
func (s *Store) Update(tableName string, key Key, cond Cond, updates ...Update) error {
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	w := write{key: key, cond: cond, updates: updates}
	return s.commit(OpUpdate, t, &w)
}

// Delete removes the row at key if cond holds. Deleting an absent row with a
// passing condition is a no-op, matching DynamoDB.
func (s *Store) Delete(tableName string, key Key, cond Cond) error {
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	w := write{key: key, cond: cond, del: true}
	return s.commit(OpDelete, t, &w)
}

// QueryOpts shape a Query or index Query.
type QueryOpts struct {
	// Filter drops non-matching rows after key selection (charged as
	// scanned, like DynamoDB filter expressions).
	Filter Cond
	// Projection trims each returned row; nil returns whole rows. Backends
	// only read it, so callers may share one slice across queries.
	Projection []Path
	// Limit caps returned rows; 0 means unlimited.
	Limit int
	// Descending reverses sort-key order.
	Descending bool
}

// Query returns the rows of one partition in sort-key order, filtered and
// projected. The result is a consistent snapshot. A partition lives entirely
// on one shard, so only that shard's lock is taken.
func (s *Store) Query(tableName string, hash Value, opts QueryOpts) ([]Item, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	hk := KeyOf(hash)
	sh := t.shardFor(hk)
	sh.mu.RLock()
	var rows []*row
	if p := sh.parts[hk]; p != nil {
		rows = p.rows // read in place: filterRows never writes to it
	}
	out, scanned, bytes := t.filterRows(rows, opts)
	sh.mu.RUnlock()
	s.metrics.ItemsScanned.Add(int64(scanned))
	s.charge(OpQuery, scanned, bytes)
	return out, nil
}

// QueryIndex queries a secondary index by its hash attribute. Results are
// ordered by the index sort attribute (or primary key order when the index
// has none). The snapshot spans every shard.
func (s *Store) QueryIndex(tableName, indexName string, hash Value, opts QueryOpts) ([]Item, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	ix, ok := t.findIndex(indexName)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSuchIndex, tableName, indexName)
	}
	t.rlockAll()
	var matched []*row
	for _, p := range t.sortedParts() {
		for _, r := range p.rows {
			v, has := lookup(r.attrs, ix.HashKey)
			if has && v.Equal(hash) {
				matched = append(matched, r)
			}
		}
	}
	if ix.SortKey != "" {
		sort.SliceStable(matched, func(i, j int) bool {
			vi, _ := lookup(matched[i].attrs, ix.SortKey)
			vj, _ := lookup(matched[j].attrs, ix.SortKey)
			return vi.Compare(vj) < 0
		})
	}
	out, scanned, bytes := t.filterRows(matched, opts)
	t.runlockAll()
	s.metrics.ItemsScanned.Add(int64(scanned))
	s.charge(OpQuery, scanned, bytes)
	return out, nil
}

// Scan walks the whole table in deterministic partition order. The result is
// a consistent snapshot (all shard read locks are held for its duration).
func (s *Store) Scan(tableName string, opts QueryOpts) ([]Item, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	t.rlockAll()
	var rows []*row
	for _, p := range t.sortedParts() {
		rows = append(rows, p.rows...)
	}
	out, scanned, bytes := t.filterRows(rows, opts)
	t.runlockAll()
	s.metrics.ItemsScanned.Add(int64(scanned))
	s.charge(OpScan, scanned, bytes)
	return out, nil
}

// TableBytes reports the table's current storage footprint (for the §7.3
// storage-overhead accounting).
func (s *Store) TableBytes(tableName string) (int, error) {
	t, err := s.table(tableName)
	if err != nil {
		return 0, err
	}
	t.rlockAll()
	defer t.runlockAll()
	return t.bytes(), nil
}

// TableItemCount reports the number of live rows.
func (s *Store) TableItemCount(tableName string) (int, error) {
	t, err := s.table(tableName)
	if err != nil {
		return 0, err
	}
	t.rlockAll()
	defer t.runlockAll()
	return t.itemCount(), nil
}

// TableNames lists tables in sorted order.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// updated returns the attributes the row at key has after us: cur's with
// the updates applied, or, when cur is nil (upsert), the key attributes'. The
// list is new; cur's is only read. Like DynamoDB it refuses an update that
// changes or removes a key attribute: a row's key attributes are its key.
// Caller holds the owning shard's lock.
func (t *table) updated(cur *row, key Key, us []Update) (attrs, error) {
	var base attrs
	if cur != nil {
		base = cur.attrs
	} else {
		var keys [2]Field
		base = append(keys[:0], Field{t.schema.HashKey, key.Hash})
		if t.schema.SortKey != "" {
			base = append(base, Field{t.schema.SortKey, key.Sort})
			slices.SortFunc(base, cmpField)
		}
	}
	next, err := applied(base, us)
	if err != nil {
		return nil, err
	}
	for _, u := range us {
		if a := u.Path.Attr; a != t.schema.HashKey && a != t.schema.SortKey {
			continue
		}
		if k, err := t.schema.KeyOf(next); err != nil || !k.Hash.Equal(key.Hash) || !k.Sort.Equal(key.Sort) {
			return nil, fmt.Errorf("dynamo: table %s key %s: %s changes a key attribute", t.schema.Name, key, u)
		}
	}
	return next, nil
}

// noItem is what a condition against an absent row is evaluated on.
// Conditions only read.
var noItem = Item{}

// evalAgainst evaluates cond against a possibly-nil current row; conditions
// against absent rows see an empty item, so attribute_not_exists passes.
func evalAgainst(c Cond, cur *row) bool {
	if cur == nil {
		return c.Eval(noItem)
	}
	return c.Eval(cur)
}

func condFailure(table string, key Key, c Cond) error {
	return fmt.Errorf("%w: table %s key %s: %s", ErrConditionFailed, table, key, c)
}

// filterRows applies filter, projection and limit, returning projected
// copies plus the scanned-row count and response byte total. rows is only
// read. Caller holds the lock of every shard a row lives on.
func (t *table) filterRows(rows []*row, opts QueryOpts) (out []Item, scanned, bytes int) {
	if opts.Descending {
		rev := make([]*row, len(rows))
		for i, r := range rows {
			rev[len(rows)-1-i] = r
		}
		rows = rev
	}
	if n := len(rows); opts.Filter == nil && n > 0 {
		// Every row up to the limit is returned: size the result once.
		if opts.Limit > 0 {
			n = min(n, opts.Limit)
		}
		out = make([]Item, 0, n)
	}
	for _, r := range rows {
		scanned++
		t.verify(r)
		if opts.Filter != nil && !opts.Filter.Eval(r) {
			continue
		}
		p := project(r.attrs, opts.Projection)
		bytes += p.Size()
		out = append(out, p)
		if opts.Limit > 0 && len(out) >= opts.Limit {
			break
		}
	}
	return out, scanned, bytes
}
