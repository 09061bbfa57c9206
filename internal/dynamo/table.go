package dynamo

import (
	"fmt"
	"sort"
)

// DefaultMaxItemSize mirrors DynamoDB's 400 KB item cap [Limits in
// DynamoDB], the constraint that motivates Beldi's linked DAAL (§4.1).
const DefaultMaxItemSize = 400 * 1024

// Schema describes a table: its name, primary key, optional secondary
// indexes, item size cap, and shard count.
type Schema struct {
	Name    string
	HashKey string // required attribute name
	SortKey string // optional; "" means a simple (hash-only) primary key

	// MaxItemSize caps each row's footprint; 0 means DefaultMaxItemSize.
	MaxItemSize int

	// Shards is the number of lock stripes the table's partitions are
	// hash-distributed across. Writes to different shards proceed in
	// parallel; all rows of one partition share a shard. 0 means the store's
	// default (WithShards, itself defaulting to DefaultShards).
	Shards int

	// Indexes are secondary indexes maintained synchronously (the store is
	// single-node, so "global" indexes are strongly consistent here).
	Indexes []IndexSchema
}

// KeyOf derives the primary key of an item or a stored row.
func (s Schema) KeyOf(it Attrs) (Key, error) {
	h, ok := it.Get(A(s.HashKey))
	if !ok {
		return Key{}, fmt.Errorf("dynamo: table %s: item missing hash key %q", s.Name, s.HashKey)
	}
	k := Key{Hash: h}
	if s.SortKey != "" {
		sv, ok := it.Get(A(s.SortKey))
		if !ok {
			return Key{}, fmt.Errorf("dynamo: table %s: item missing sort key %q", s.Name, s.SortKey)
		}
		k.Sort = sv
	}
	return k, nil
}

// IndexSchema describes a secondary index with its own hash (and optional
// sort) attribute. Items missing the index hash attribute simply do not
// appear in the index, which is how Beldi's intent collector keeps its
// "unfinished intents" index sparse (§3.3).
type IndexSchema struct {
	Name    string
	HashKey string
	SortKey string
}

// Key identifies a row: the hash attribute value and, for composite-key
// tables, the sort attribute value (Null otherwise).
type Key struct {
	Hash Value
	Sort Value
}

// HK builds a simple key.
func HK(hash Value) Key { return Key{Hash: hash} }

// HSK builds a composite key.
func HSK(hash, sort Value) Key { return Key{Hash: hash, Sort: sort} }

// String renders the key as "hash" or "hash/sort" for diagnostics.
func (k Key) String() string {
	if k.Sort.IsNull() {
		return k.Hash.String()
	}
	return k.Hash.String() + "/" + k.Sort.String()
}

// row is a stored row's attributes plus its decoded sort value for ordering.
// sum is the tripwire's fingerprint of the attributes (see verify.go); 0 when
// it is off.
type row struct {
	sortVal Value
	attrs   attrs
	sum     uint64
}

// Get makes a stored row the Attrs a condition reads in place.
func (r *row) Get(p Path) (Value, bool) { return r.attrs.Get(p) }

// partition holds all rows sharing a hash key, ordered by sort value.
type partition struct {
	rows []*row // ascending by sortVal
}

func (p *partition) find(sortVal Value) (int, bool) {
	i := sort.Search(len(p.rows), func(i int) bool {
		return p.rows[i].sortVal.Compare(sortVal) >= 0
	})
	if i < len(p.rows) && p.rows[i].sortVal.Equal(sortVal) {
		return i, true
	}
	return i, false
}

func (p *partition) insertAt(i int, r *row) {
	p.rows = append(p.rows, nil)
	copy(p.rows[i+1:], p.rows[i:])
	p.rows[i] = r
}

func (p *partition) removeAt(i int) {
	copy(p.rows[i:], p.rows[i+1:])
	p.rows = p.rows[:len(p.rows)-1]
}

// table is the store's internal representation of one table: a fixed array
// of shards, each a lock-striped slice of the partition space. Single-shard
// operations (Get, Put, Update, Delete, Query) touch exactly one shard's
// lock; whole-table operations (Scan, QueryIndex, TableBytes) take every
// shard's read lock in index order, so their results remain consistent
// snapshots — slightly stronger than DynamoDB's per-row linearizability,
// and sufficient for the property Beldi needs from scans (§4.1: writes
// completing strictly before the scan are reflected in it).
type table struct {
	schema  Schema
	maxSize int
	shards  []*shard
}

func newTable(s Schema, defaultShards int) *table {
	max := s.MaxItemSize
	if max == 0 {
		max = DefaultMaxItemSize
	}
	n := s.Shards
	if n == 0 {
		n = defaultShards
	}
	if n < 1 {
		n = 1
	}
	t := &table{schema: s, maxSize: max, shards: make([]*shard, n)}
	for i := range t.shards {
		t.shards[i] = &shard{t: t, parts: make(map[ScalarKey]*partition)}
	}
	return t
}

// shardFor returns the shard owning the partition with the given hash key.
func (t *table) shardFor(hk ScalarKey) *shard {
	return t.shards[hk.stripe(len(t.shards))]
}

// shardOf returns the shard owning key's partition.
func (t *table) shardOf(k Key) *shard {
	return t.shardFor(KeyOf(k.Hash))
}

// rlockAll read-locks every shard in index order (whole-table snapshot).
func (t *table) rlockAll() {
	for _, sh := range t.shards {
		sh.mu.RLock()
	}
}

// runlockAll releases rlockAll in reverse order.
func (t *table) runlockAll() {
	for i := len(t.shards) - 1; i >= 0; i-- {
		t.shards[i].mu.RUnlock()
	}
}

// bytes sums the storage footprint of every row. Caller holds every shard
// lock.
func (t *table) bytes() int {
	n := 0
	for _, sh := range t.shards {
		for _, p := range sh.parts {
			for _, r := range p.rows {
				n += r.attrs.size()
			}
		}
	}
	return n
}

// itemCount counts rows. Caller holds every shard lock.
func (t *table) itemCount() int {
	n := 0
	for _, sh := range t.shards {
		for _, p := range sh.parts {
			n += len(p.rows)
		}
	}
	return n
}

// sortedParts returns the partitions of all shards in deterministic order:
// that of their keys' rendered form (see ScalarKey.Before), which is the
// order whole-table reads have always had. Caller holds every shard lock.
func (t *table) sortedParts() []*partition {
	type keyed struct {
		k ScalarKey
		p *partition
	}
	var ks []keyed
	for _, sh := range t.shards {
		for k, p := range sh.parts {
			ks = append(ks, keyed{k, p})
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].k.Before(ks[j].k) })
	parts := make([]*partition, len(ks))
	for i := range ks {
		parts[i] = ks[i].p
	}
	return parts
}

// findIndex returns the IndexSchema by name.
func (t *table) findIndex(name string) (IndexSchema, bool) {
	for _, ix := range t.schema.Indexes {
		if ix.Name == name {
			return ix, true
		}
	}
	return IndexSchema{}, false
}

// project reduces a row to the requested paths (plus nothing else),
// mirroring a DynamoDB projection expression. A nil projection returns the
// full row. Either way the result is a new Item whose values are the row's
// own, shared: a map entry projected beside its whole attribute goes through
// Item.set, which builds a new map. Beldi's DAAL traversal projects just
// RowId and NextRow to download "256 bits per row" (§4.1).
func project(a attrs, proj []Path) Item {
	if proj == nil {
		return a.item()
	}
	out := make(Item, len(proj))
	for _, p := range proj {
		// A map entry keeps the map shape, {Attr: {MapKey: v}}, so callers
		// address entries uniformly.
		if v, ok := a.Get(p); ok {
			out.set(p, v)
		}
	}
	return out
}
