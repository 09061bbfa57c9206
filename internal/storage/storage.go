// Package storage defines the seam between Beldi's protocol layers and the
// database that makes them durable: Backend is the slice of DynamoDB's API
// that the core actually consumes (strongly consistent reads, atomic
// conditional single-row writes, query/scan with filtering and projection,
// secondary-index queries, and multi-row conditional transactions).
//
// Everything above this package — core, queue, platform glue, the beldi
// facade, the bench harness — holds a Backend, never a concrete store, so
// backends are pluggable:
//
//   - internal/dynamo is the in-memory implementation (lock-striped shards,
//     group-commit batching, injectable latency model) that every simulation
//     figure runs on;
//   - internal/walstore wraps it with a segmented, CRC-checked write-ahead
//     log plus snapshots, so the same protocol state survives the process
//     and Open(dir) recovers it.
//
// The data model (Value, Item, Key, Cond, Update, Schema, …) is shared by
// all backends and lives in internal/dynamo; this package re-exports it
// under storage names so consumers can depend on the seam alone. The
// conformance suite in storage/storagetest pins every backend to identical
// observable semantics, condition failures and error identities included.
package storage

import "repro/internal/dynamo"

// Shared data-model types, aliased from the dynamo package (the reference
// implementation of the model). The aliases are identities: values flow
// between packages using either name.
type (
	// Value is a dynamically typed attribute value.
	Value = dynamo.Value
	// Item is a row: named attributes.
	Item = dynamo.Item
	// Key identifies a row by hash (and optional sort) attribute value.
	Key = dynamo.Key
	// Cond guards conditional operations.
	Cond = dynamo.Cond
	// Update is one action of an update expression.
	Update = dynamo.Update
	// Schema describes a table.
	Schema = dynamo.Schema
	// IndexSchema describes a secondary index.
	IndexSchema = dynamo.IndexSchema
	// QueryOpts shape a Query, QueryIndex or Scan.
	QueryOpts = dynamo.QueryOpts
	// Path addresses an attribute (optionally one level into a map).
	Path = dynamo.Path
	// TxOp is one write inside a TransactWrite.
	TxOp = dynamo.TxOp
	// Metrics counts a backend's traffic (the metrics hook every backend
	// exposes; walstore adds WAL-specific counters on the side).
	Metrics = dynamo.Metrics
	// TxCanceledError reports a canceled TransactWrite with per-op reasons.
	TxCanceledError = dynamo.TxCanceledError
)

// Error identities shared by every backend; test with errors.Is. They alias
// the dynamo package's errors so existing errors.Is checks keep working
// regardless of which name produced them.
var (
	// ErrConditionFailed reports a conditional operation whose condition
	// evaluated false.
	ErrConditionFailed = dynamo.ErrConditionFailed
	// ErrItemTooLarge reports an operation that would exceed the table's
	// item size cap.
	ErrItemTooLarge = dynamo.ErrItemTooLarge
	// ErrNoSuchTable reports an operation against an unknown table.
	ErrNoSuchTable = dynamo.ErrNoSuchTable
	// ErrTableExists reports CreateTable on an existing name.
	ErrTableExists = dynamo.ErrTableExists
	// ErrNoSuchIndex reports a query against an unknown secondary index.
	ErrNoSuchIndex = dynamo.ErrNoSuchIndex
)

// Backend is the store API Beldi's protocol layers consume. Implementations
// must be safe for concurrent use; every operation is linearizable, and
// conditional updates are atomic within a row — the atomicity scope the
// paper assumes of DynamoDB (§2.2). Whole-table reads (Scan, QueryIndex,
// TableBytes, TableItemCount) must return consistent snapshots: writes that
// complete strictly before the call are reflected in the result, the
// property Beldi's DAAL traversal needs from scans (§4.1).
type Backend interface {
	// CreateTable registers a new table; ErrTableExists on duplicates.
	CreateTable(schema Schema) error
	// DeleteTable drops a table and its data.
	DeleteTable(name string) error
	// TableNames lists tables in sorted order.
	TableNames() []string
	// TableShards reports the shard count of an existing table (1 for
	// backends without striping).
	TableShards(name string) (int, error)
	// TableSchema returns an existing table's schema (Shards resolved to
	// the effective stripe count) — what adoption checks against when a
	// durable deployment reopens its tables.
	TableSchema(name string) (Schema, error)
	// TableBytes reports the table's current storage footprint.
	TableBytes(name string) (int, error)
	// TableItemCount reports the number of live rows.
	TableItemCount(name string) (int, error)

	// Get returns the item at key (strongly consistent). The attribute map
	// is the caller's; the values in it are immutable and may be shared
	// with the backend (see dynamo.Value), as are those of every Item a
	// backend returns or is given.
	Get(table string, key Key) (Item, bool, error)
	// GetProj is Get with a server-side projection.
	GetProj(table string, key Key, proj []Path) (Item, bool, error)
	// Put installs item if cond holds against the current (possibly absent)
	// row; nil cond always passes.
	Put(table string, item Item, cond Cond) error
	// Update applies update actions to the row at key if cond holds,
	// upserting a missing row.
	Update(table string, key Key, cond Cond, updates ...Update) error
	// Delete removes the row at key if cond holds; deleting an absent row
	// with a passing condition is a no-op.
	Delete(table string, key Key, cond Cond) error

	// Query returns one partition's rows in sort-key order.
	Query(table string, hash Value, opts QueryOpts) ([]Item, error)
	// QueryIndex queries a secondary index by its hash attribute.
	QueryIndex(table, index string, hash Value, opts QueryOpts) ([]Item, error)
	// Scan walks the whole table in deterministic partition order.
	Scan(table string, opts QueryOpts) ([]Item, error)

	// TransactWrite applies all ops atomically or none, reporting per-op
	// outcomes via *TxCanceledError.
	TransactWrite(ops []TxOp) error

	// Metrics exposes the backend's live traffic counters.
	Metrics() *Metrics
}

// Compile-time check: the in-memory dynamo store is a Backend.
var _ Backend = (*dynamo.Store)(nil)

// AsDynamo unwraps a Backend down to its concrete in-memory *dynamo.Store
// when the backend is (or wraps) one — the accessor benches and the overlay
// use to reach what is an implementation detail, not part of the seam: the
// modeled commit latency (ModelCommitLatency) and the shard layout. (Latency
// and group commit are fixed when the store is built: dynamo.WithLatency,
// dynamo.WithGroupCommit.) Backends that wrap a dynamo
// store implement interface{ DynamoStore() *dynamo.Store }; a wrapper whose
// base has none (an overlay over a remote client) answers nil there, which
// is reported as ok == false, never as a store.
func AsDynamo(b Backend) (*dynamo.Store, bool) {
	switch s := b.(type) {
	case *dynamo.Store:
		return s, true
	case interface{ DynamoStore() *dynamo.Store }:
		ds := s.DynamoStore()
		return ds, ds != nil
	}
	return nil, false
}

// Fencer is an optional Backend extension implemented by speculation
// overlays (internal/pipeline): Fence blocks until every write issued
// before the call is durable on the underlying substrate. Externally
// visible effects — a workflow's entry reply above all — must not be
// released until the writes they depend on have cleared a fence.
type Fencer interface {
	// Fence blocks until the durability watermark catches up with every
	// previously issued write, returning the overlay's sticky flush error
	// if the pipeline has failed.
	Fence() error
}

// Fence makes b durable up to the current write watermark when it is a
// Fencer, and is a free no-op for every synchronous backend (the memory
// store, walstore, and remote client are durable at write return already).
// Effect-releasing call sites use this helper so the hot path stays
// overlay-agnostic.
func Fence(b Backend) error {
	if f, ok := b.(Fencer); ok {
		return f.Fence()
	}
	return nil
}

// DefaultWatchBuffer is the per-subscription event buffer shared by every
// backend's watch implementation.
const DefaultWatchBuffer = dynamo.DefaultWatchBuffer

// CommitEvent is one committed write observed through a watch subscription
// (a wakeup hint carrying the table, the row's hash-key value, and the
// table's notification sequence number).
type CommitEvent = dynamo.CommitEvent

// Subscription is a live handle on a table's commit stream. Events is the
// channel form; Wait is the timer-bounded blocking form a Waiter waits on
// (and the form deterministic simulation wrappers reimplement over virtual
// time). Delivery is at-least-one-wakeup per commit: events may be coalesced
// when a subscriber lags, so consumers treat an event as "re-read the table
// now", never as the data itself.
type Subscription = dynamo.Subscription

// Watcher is an optional Backend extension: commit-stream subscriptions per
// table (and optionally per partition). The memory store notifies when a
// write's group-commit batch completes; walstore notifies after the WAL
// fsync that made the write durable; the pipeline overlay delegates to its
// base so only durable (flushed) commits notify; the remote client streams
// the server's events over a push frame. Registration is synchronous:
// every commit that completes after Watch returns produces a wakeup.
type Watcher interface {
	// Watch subscribes to table's commit stream; a Null hash watches every
	// partition, otherwise only rows whose hash-key value equals hash.
	Watch(table string, hash Value) (Subscription, error)
}

// Watch subscribes to table's commit stream when b supports it, returning
// (nil, false) for backends without push — the capability-probe helper
// every consumer uses so poll loops degrade gracefully (the same pattern as
// Fence over Fencer). Errors from a supporting backend (unknown table, lost
// connection) also report (nil, false): the caller's fallback is polling,
// which surfaces real errors on its own.
func Watch(b Backend, table string, hash Value) (Subscription, bool) {
	w, ok := b.(Watcher)
	if !ok {
		return nil, false
	}
	sub, err := w.Watch(table, hash)
	if err != nil || sub == nil {
		return nil, false
	}
	return sub, true
}

// Compile-time check: the in-memory dynamo store is a Watcher.
var _ Watcher = (*dynamo.Store)(nil)

// MustCreateTable is Backend.CreateTable, panicking on error; for setup
// code (the method-form convenience the concrete stores offer, spelled as a
// function over the seam).
func MustCreateTable(b Backend, schema Schema) {
	if err := b.CreateTable(schema); err != nil {
		panic(err)
	}
}
