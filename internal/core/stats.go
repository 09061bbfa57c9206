package core

import "sync/atomic"

// Stats counts a runtime's protocol activity: what the paper's cost model
// (§7.3) talks about per operation, surfaced as counters an operator can
// watch. All fields are updated atomically; read them live.
type Stats struct {
	// API operations executed by instances of this SSF.
	Reads      atomic.Int64
	Writes     atomic.Int64
	CondWrites atomic.Int64
	SyncCalls  atomic.Int64
	AsyncCalls atomic.Int64
	Locks      atomic.Int64
	Unlocks    atomic.Int64

	// Unlogged calls (invoke.go): sync calls this SSF made to callees hinted
	// pure that ran with no invoke-log row and no callback, and those the
	// callee refused as not pure, which were then made logged.
	CallsUnlogged        atomic.Int64
	CallsUnloggedRefused atomic.Int64

	// Durable promises: promise-returning async invocations issued, awaits
	// resolved, results posted into this SSF's invoke log, and posts refused
	// (a re-executed callee's duplicate, or a post for a collected owner).
	PromiseCalls        atomic.Int64
	Awaits              atomic.Int64
	PromisePosts        atomic.Int64
	PromisePostsRefused atomic.Int64

	// ChangeEvents counts table-change (CDC) events emitted: committed
	// writes to a watched table that fired a registered change handler (one
	// count per handler invocation issued).
	ChangeEvents atomic.Int64

	// Replays counts operations resolved from logs instead of executing —
	// the visible footprint of re-executions (each one is an effect the
	// protocol deduplicated).
	Replays atomic.Int64

	// The group-committed read log (readlog.go): flush transactions issued,
	// rows they inserted, and executions that stopped because a concurrent
	// execution of the same intent logged a step first (duplicate delivery
	// or an over-eager collector; self-healing, never data loss).
	ReadLogFlushes      atomic.Int64
	ReadLogRows         atomic.Int64
	InstancesSuperseded atomic.Int64

	// Transactions.
	TxnBegun     atomic.Int64
	TxnCommitted atomic.Int64
	TxnAborted   atomic.Int64

	// Lifecycle. IntentsStarted counts intent rows written. A first-launched
	// callee or client entry defers its row to its first effect boundary
	// (IntentsDeferred counts such launches) and one that returns without
	// crossing a boundary never writes it (IntentsElided): its instance id
	// shows in the caller's invoke log (a callee's) and in traces, not in
	// this SSF's intent table.
	IntentsStarted   atomic.Int64
	IntentsCompleted atomic.Int64
	IntentsDeferred  atomic.Int64
	IntentsElided    atomic.Int64
	Restarts         atomic.Int64 // instances re-launched by the collector
	IntentsDead      atomic.Int64 // async intents a claim found past their launch budget
	CallbacksIn      atomic.Int64
	SpuriousCallback atomic.Int64

	// Cluster-scoped collection (see CollectorGate): claims this runtime's
	// collector attempted but the store rejected because the worker's
	// authority had been fenced off — each one is a zombie write refused.
	FencedClaims atomic.Int64

	// Garbage collection accumulators.
	GCRuns         atomic.Int64
	GCIntents      atomic.Int64
	GCLogRows      atomic.Int64
	GCRowsDeleted  atomic.Int64
	GCDisconnected atomic.Int64

	// DAALRepairs counts appended rows a write walk put back: rows a GC pass
	// collected while their appender stalled between its put and its link
	// (daal.go, repairSuccessor).
	DAALRepairs atomic.Int64
}

// StatsView is a point-in-time copy for reporting.
type StatsView struct {
	Reads, Writes, CondWrites, SyncCalls, AsyncCalls, Locks, Unlocks int64
	CallsUnlogged, CallsUnloggedRefused                              int64
	PromiseCalls, Awaits, PromisePosts, PromisePostsRefused          int64
	ChangeEvents                                                     int64
	Replays                                                          int64
	ReadLogFlushes, ReadLogRows, InstancesSuperseded                 int64
	TxnBegun, TxnCommitted, TxnAborted                               int64
	IntentsStarted, IntentsCompleted, Restarts                       int64
	IntentsDeferred, IntentsElided, IntentsDead                      int64
	CallbacksIn, SpuriousCallback, FencedClaims                      int64
	GCRuns, GCIntents, GCLogRows, GCRowsDeleted, GCDisconnected      int64
	DAALRepairs                                                      int64
}

// Stats exposes the runtime's counters.
func (rt *Runtime) Stats() *Stats { return &rt.stats }

// StatsSnapshot copies the counters.
func (rt *Runtime) StatsSnapshot() StatsView { return rt.stats.Snapshot() }

// Snapshot copies the counters — the common snapshot shape every subsystem
// stats struct shares (see also dynamo.Metrics.Snapshot, queue, platform,
// walstore, cluster), which is what makes telemetry registration
// mechanical.
func (s *Stats) Snapshot() StatsView {
	return StatsView{
		Reads:            s.Reads.Load(),
		Writes:           s.Writes.Load(),
		CondWrites:       s.CondWrites.Load(),
		SyncCalls:        s.SyncCalls.Load(),
		AsyncCalls:       s.AsyncCalls.Load(),
		Locks:            s.Locks.Load(),
		Unlocks:          s.Unlocks.Load(),
		PromiseCalls:     s.PromiseCalls.Load(),
		Awaits:           s.Awaits.Load(),
		PromisePosts:     s.PromisePosts.Load(),
		ChangeEvents:     s.ChangeEvents.Load(),
		Replays:          s.Replays.Load(),
		TxnBegun:         s.TxnBegun.Load(),
		TxnCommitted:     s.TxnCommitted.Load(),
		TxnAborted:       s.TxnAborted.Load(),
		IntentsStarted:   s.IntentsStarted.Load(),
		IntentsCompleted: s.IntentsCompleted.Load(),
		IntentsDeferred:  s.IntentsDeferred.Load(),
		IntentsElided:    s.IntentsElided.Load(),
		Restarts:         s.Restarts.Load(),
		IntentsDead:      s.IntentsDead.Load(),
		CallbacksIn:      s.CallbacksIn.Load(),
		SpuriousCallback: s.SpuriousCallback.Load(),
		FencedClaims:     s.FencedClaims.Load(),
		GCRuns:           s.GCRuns.Load(),
		GCIntents:        s.GCIntents.Load(),
		GCLogRows:        s.GCLogRows.Load(),
		GCRowsDeleted:    s.GCRowsDeleted.Load(),
		GCDisconnected:   s.GCDisconnected.Load(),
		DAALRepairs:      s.DAALRepairs.Load(),

		ReadLogFlushes:      s.ReadLogFlushes.Load(),
		ReadLogRows:         s.ReadLogRows.Load(),
		InstancesSuperseded: s.InstancesSuperseded.Load(),
		PromisePostsRefused: s.PromisePostsRefused.Load(),

		CallsUnlogged:        s.CallsUnlogged.Load(),
		CallsUnloggedRefused: s.CallsUnloggedRefused.Load(),
	}
}
