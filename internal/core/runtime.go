// Package core implements Beldi: exactly-once stateful serverless functions
// (SSFs) with locks and cross-SSF transactions, per "Fault-tolerant and
// Transactional Stateful Serverless Workflows" (OSDI 2020).
//
// Each SSF gets a Runtime bundling its own database tables (intent table,
// read log, invoke log, data tables stored as linked DAALs) and two
// collectors, run in passes by whoever drives them: an intent collector that
// re-executes unfinished instances and a garbage collector that prunes logs
// and DAAL rows. Data sovereignty (§2.2) falls out of the layout: every table
// belongs to exactly one SSF, and other SSFs interact with it only by
// invocation.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"errors"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/uuid"
)

// Value aliases the store's value type; it flows end to end (inputs,
// outputs, stored state).
type Value = dynamo.Value

// Mode selects the storage/consistency machinery an SSF runs with. The
// paper's evaluation compares all three (§7.2–§7.3).
type Mode int

const (
	// ModeBeldi is the paper's system: linked-DAAL logging, exactly-once.
	ModeBeldi Mode = iota
	// ModeCrossTable logs writes to a separate table with cross-table
	// transactions instead of a linked DAAL (the §7.3 comparator). Same
	// guarantees, different cost profile.
	ModeCrossTable
	// ModeBaseline runs with no logging and no guarantees (the evaluation
	// baseline): raw reads/writes, raw invocations.
	ModeBaseline
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBeldi:
		return "beldi"
	case ModeCrossTable:
		return "crosstable"
	case ModeBaseline:
		return "baseline"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config tunes a Runtime.
type Config struct {
	// RowCap is N, the maximum number of write-log entries per DAAL row
	// (§4.3). DynamoDB's 400 KB row fits a few hundred; the default keeps
	// rows small so tests exercise row transitions. 0 means DefaultRowCap.
	RowCap int
	// T is the maximum lifetime of an SSF instance: the GC's synchrony
	// bound (§5). 0 means DefaultT.
	T time.Duration
	// ICMinAge makes the collector restart an instance only when its last
	// launch is at least this old (§3.3's first IC optimization). A
	// deployment's collection loop also runs its intent-collection passes
	// this far apart (beldi.Deployment.StartCollectors). 0 means T.
	ICMinAge time.Duration
	// ICPageLimit bounds intents processed per collector run (Appendix A's
	// paging: the paper's collectors are SSFs with execution timeouts, so
	// each run must be bounded; the next run continues where the last left
	// off). 0 means unlimited. The pending index is ordered by LastLaunch,
	// and restarting an instance advances its LastLaunch, so limited runs
	// resume at the next-oldest instance without an explicit cursor.
	ICPageLimit int
	// GCPageLimit bounds intents recycled per garbage-collector run (the
	// same Appendix A bounding); the remainder is reclaimed by subsequent
	// runs. 0 means unlimited.
	GCPageLimit int
	// DisableCallbacks turns off the §4.5 callback mechanism; only the
	// ablation tests use it, to reproduce the Figure 9 double-execution
	// anomaly.
	DisableCallbacks bool
	// LockRetryBase is the initial backoff between standalone lock
	// attempts. 0 means 1ms.
	LockRetryBase time.Duration
	// LockRetryMax bounds standalone-lock retries per Lock call; retries
	// consume log entries, so they are bounded. 0 means 50.
	LockRetryMax int
	// AwaitRetryMax bounds the timed-out waits per Promise.Await before the
	// await gives up with ErrAwaitTimeout (the instance fails and the intent
	// collector retries it later); in Env.AwaitAll the budget is per missing
	// result, refilled by each fetch that finds one. The waits back off
	// exponentially from LockRetryBase, capped at 128×; one cut short by a
	// push wake-up is not counted. 0 means 200.
	AwaitRetryMax int
	// TableShards is the shard count for this SSF's own tables — the DAAL
	// data tables where appends and lock rows live, the read/invoke logs,
	// the intent table, and the transaction bookkeeping tables. Striping
	// them lets concurrent instances log steps, register intents, and take
	// item locks without serializing on one table latch (the substrate-level
	// scaling lever; see ARCHITECTURE.md). 0 means the store's default shard
	// count, so existing deployments are unchanged.
	TableShards int
}

// Defaults for Config zero values.
const (
	DefaultRowCap = 8
	DefaultT      = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.RowCap == 0 {
		c.RowCap = DefaultRowCap
	}
	if c.T == 0 {
		c.T = DefaultT
	}
	if c.ICMinAge == 0 {
		c.ICMinAge = c.T
	}
	if c.LockRetryBase == 0 {
		c.LockRetryBase = time.Millisecond
	}
	if c.LockRetryMax == 0 {
		c.LockRetryMax = 50
	}
	if c.AwaitRetryMax == 0 {
		c.AwaitRetryMax = 200
	}
	return c
}

// Runtime is the per-SSF infrastructure: its function name, its own
// database, the platform it runs on, and its configuration.
type Runtime struct {
	fn    string
	store storage.Backend
	plat  *platform.Platform
	cfg   Config
	mode  Mode
	clk   clock.Clock
	ids   uuid.Source

	// launchBudget bounds the collector's launches of an async intent; 0
	// means unbounded (SetLaunchBudget).
	launchBudget atomic.Int64

	gateMu sync.RWMutex
	gate   CollectorGate

	body Body

	intentTable string
	readLog     string
	invokeLog   string
	txCallees   string
	txLocks     string

	// kv and kvShadow are the mode's state layer over the data tables and
	// over their shadows, built once (see layer).
	kv, kvShadow kvLayer
	// logRoom is "LogSize < RowCap", the DAAL row's room-left test.
	logRoom dynamo.Cond

	mu             sync.RWMutex
	dataTables_    []string
	dataTableNames map[string]physicalNames
	// sealed maps each sealed logical table to its read cache (seal.go); nil
	// until a table is sealed. Written under mu, copied on each seal.
	sealed atomic.Pointer[map[string]*sealedTable]

	// cdc holds the table-change handler registry (see cdc.go).
	cdc cdcRegistry

	stats Stats

	// tel is the deployment's telemetry hub, nil when telemetry is off;
	// every producer site guards on the nil so a hub-less runtime pays only
	// an untaken branch. The histograms are resolved once at construction
	// (Registry.Histogram takes a lock) and cover this SSF's hot paths.
	tel      *telemetry.Hub
	histStep *hist.Histogram // step commit (logged write/condwrite/unlock)
	histLock *hist.Histogram // lock acquire, retries included
	histTxn  *hist.Histogram // transaction commit (finishTxnLocal on commit)
}

// dataTables lists the logical data tables registered so far (the GC's
// getAllDataKeys universe, Figure 10).
func (rt *Runtime) dataTables() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, len(rt.dataTables_))
	copy(out, rt.dataTables_)
	return out
}

// RuntimeOptions configure NewRuntime.
type RuntimeOptions struct {
	// Function is the SSF's platform name. Required.
	Function string
	// Store is the SSF's own database — any storage.Backend (the in-memory
	// dynamo store, the durable walstore, …). Required. SSFs of the same
	// team may share a store; tables are namespaced by function name.
	Store storage.Backend
	// Platform hosts the SSF; the intent collector restarts instances
	// through it. Required.
	Platform *platform.Platform
	// Mode selects Beldi / cross-table / baseline machinery.
	Mode Mode
	// Config tunes protocol parameters.
	Config Config
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// IDs defaults to random UUIDs.
	IDs uuid.Source
	// Telemetry, when set, makes the runtime emit causal trace spans for
	// every logged step and invocation, and record hot-path latency
	// histograms under "core.<fn>.*". Nil disables all of it.
	Telemetry *telemetry.Hub
}

// NewRuntime creates the SSF's runtime and its backing tables.
func NewRuntime(opts RuntimeOptions) (*Runtime, error) {
	if opts.Function == "" || opts.Store == nil || opts.Platform == nil {
		return nil, fmt.Errorf("core: NewRuntime: Function, Store and Platform are required")
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	ids := opts.IDs
	if ids == nil {
		ids = uuid.Random{}
	}
	rt := &Runtime{
		fn:          opts.Function,
		store:       opts.Store,
		plat:        opts.Platform,
		cfg:         opts.Config.withDefaults(),
		mode:        opts.Mode,
		clk:         clk,
		ids:         ids,
		intentTable: opts.Function + intentSuffix,
		readLog:     opts.Function + readLogSuffix,
		invokeLog:   opts.Function + invokeLogSuffix,
		txCallees:   opts.Function + txCalleesSuffix,
		txLocks:     opts.Function + txLocksSuffix,
		tel:         opts.Telemetry,
	}
	switch rt.mode {
	case ModeCrossTable:
		rt.kv, rt.kvShadow = crossTableLayer{rt: rt}, crossTableLayer{rt: rt, isShadow: true}
	default:
		rt.kv, rt.kvShadow = daalLayer{rt: rt}, daalLayer{rt: rt, isShadow: true}
	}
	rt.logRoom = dynamo.Lt(dynamo.A(attrLogSize), dynamo.N(float64(rt.cfg.RowCap)))
	if rt.tel != nil {
		rt.histStep = rt.tel.Registry.Histogram("core." + rt.fn + ".step_commit")
		rt.histLock = rt.tel.Registry.Histogram("core." + rt.fn + ".lock_acquire")
		rt.histTxn = rt.tel.Registry.Histogram("core." + rt.fn + ".txn_commit")
	}
	if rt.mode != ModeBaseline {
		if err := rt.createInfraTables(); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// MustNewRuntime is NewRuntime, panicking on error; for setup code.
func MustNewRuntime(opts RuntimeOptions) *Runtime {
	rt, err := NewRuntime(opts)
	if err != nil {
		panic(err)
	}
	return rt
}

func (rt *Runtime) createInfraTables() error {
	// Every hot-path table inherits the configured shard count: intent
	// registration, read/invoke-log appends, and transaction bookkeeping all
	// key by instance or transaction id, so striping spreads concurrent
	// instances across independent latches.
	n := rt.cfg.TableShards
	tables := []dynamo.Schema{
		{Name: rt.intentTable, HashKey: attrInstanceID, Shards: n,
			Indexes: []dynamo.IndexSchema{{Name: indexPending, HashKey: attrPending, SortKey: attrLastLaunch}}},
		{Name: rt.readLog, HashKey: attrID, SortKey: attrStep, Shards: n},
		{Name: rt.invokeLog, HashKey: attrID, SortKey: attrStep, Shards: n},
		{Name: rt.txCallees, HashKey: attrTxnID, SortKey: attrCallee, Shards: n},
		{Name: rt.txLocks, HashKey: attrTxnID, SortKey: attrTableKey, Shards: n},
	}
	for _, s := range tables {
		if _, err := rt.createOrAdopt(s); err != nil {
			return fmt.Errorf("core: %s: %w", rt.fn, err)
		}
	}
	return nil
}

// createOrAdopt creates one of the runtime's tables, adopting a table that
// already exists in the store. On an in-memory store a fresh runtime never
// collides; on a durable backend reopened from disk (walstore), the
// surviving tables — pending intents, logs, DAAL chains — are exactly the
// state a restarted deployment must recover, so existing tables are kept
// as-is (a table's layout is fixed at creation). Adoption is verified: the
// surviving table's keys and indexes must match what this runtime's mode
// would have created — reopening a directory with a different Mode (or a
// colliding function name whose tables have another shape) fails loudly
// instead of silently running the protocol on the wrong layout. adopted
// reports that the table already existed.
func (rt *Runtime) createOrAdopt(s dynamo.Schema) (adopted bool, _ error) {
	err := rt.store.CreateTable(s)
	if !errors.Is(err, dynamo.ErrTableExists) {
		return false, err
	}
	have, err := rt.store.TableSchema(s.Name)
	if err != nil {
		return true, err
	}
	if have.HashKey != s.HashKey || have.SortKey != s.SortKey || !sameIndexes(have.Indexes, s.Indexes) {
		return true, fmt.Errorf("core: adopt table %s: existing schema (hash %q, sort %q, %d indexes) does not match required (hash %q, sort %q, %d indexes); was the store written by a different mode or function?",
			s.Name, have.HashKey, have.SortKey, len(have.Indexes), s.HashKey, s.SortKey, len(s.Indexes))
	}
	return true, nil
}

// sameIndexes reports whether two index lists declare the same indexes (in
// the same order — creation order is deterministic per mode).
func sameIndexes(a, b []dynamo.IndexSchema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CreateDataTable declares a logical data table owned by this SSF, creating
// the physical table(s) the runtime's mode needs (a linked-DAAL table plus
// its shadow in Beldi mode; value + write-log + shadows in cross-table mode;
// one plain table in baseline mode). A table the store already had adopts
// its seal, if it has one (seal.go).
func (rt *Runtime) CreateDataTable(logical string) error {
	// Data tables key by item, so DAAL appends and lock rows for different
	// items stripe across shards; all rows of one item's DAAL chain share a
	// shard (the item key is the hash key), keeping each chain's
	// scan+update protocol on a single latch.
	n := rt.cfg.TableShards
	var schemas []dynamo.Schema
	switch rt.mode {
	case ModeBeldi:
		for _, name := range []string{rt.dataTable(logical), rt.shadowTable(logical)} {
			schemas = append(schemas, dynamo.Schema{Name: name, HashKey: attrKey, SortKey: attrRowID, Shards: n})
		}
	case ModeCrossTable:
		for _, name := range []string{rt.dataTable(logical), rt.shadowTable(logical)} {
			schemas = append(schemas, dynamo.Schema{Name: name, HashKey: attrKey, Shards: n})
		}
		for _, name := range []string{rt.writeLogTable(logical), rt.shadowWriteLogTable(logical)} {
			schemas = append(schemas, dynamo.Schema{Name: name, HashKey: attrID, SortKey: attrStep, Shards: n})
		}
	case ModeBaseline:
		schemas = append(schemas, dynamo.Schema{Name: rt.dataTable(logical), HashKey: attrKey, Shards: n})
	}
	for i, s := range schemas {
		adopted, err := rt.createOrAdopt(s)
		if err == nil && adopted && i == 0 {
			err = rt.adoptSeal(logical)
		}
		if err != nil {
			return err
		}
	}
	rt.mu.Lock()
	rt.dataTables_ = append(rt.dataTables_, logical)
	if rt.dataTableNames == nil {
		rt.dataTableNames = make(map[string]physicalNames)
	}
	rt.dataTableNames[logical] = rt.physicalOf(logical)
	rt.mu.Unlock()
	return nil
}

// resolveLogical maps a body-level table name to the effective logical
// table for the requesting application (§2.2 SSF reusability): when the
// SSF registered an app-scoped table "<app>:<logical>", requests carrying
// that app name use it; otherwise the shared table is used, which is how
// cross-application state stays possible.
func (rt *Runtime) resolveLogical(app, logical string) string {
	if app == "" {
		return logical
	}
	scoped := app + ":" + logical
	rt.mu.RLock()
	_, ok := rt.dataTableNames[scoped]
	rt.mu.RUnlock()
	if ok {
		return scoped
	}
	return logical
}

// MustCreateDataTable is CreateDataTable, panicking on error.
func (rt *Runtime) MustCreateDataTable(logical string) {
	if err := rt.CreateDataTable(logical); err != nil {
		panic(err)
	}
}

// physicalNames are one logical data table's physical table names. All
// tables of an SSF share its name as prefix: the unit of data sovereignty.
type physicalNames struct {
	data, shadow, wlog, shadowWlog string
}

func (rt *Runtime) physicalOf(logical string) physicalNames {
	data := rt.fn + dataInfix + logical
	return physicalNames{
		data:       data,
		shadow:     data + shadowSuffix,
		wlog:       data + wlogSuffix,
		shadowWlog: data + shadowSuffix + wlogSuffix,
	}
}

// names returns logical's physical table names: those built when the table
// was registered, so a step does not concatenate them again, or fresh ones
// for a table that was not (the store then reports it missing by name).
func (rt *Runtime) names(logical string) physicalNames {
	rt.mu.RLock()
	n, ok := rt.dataTableNames[logical]
	rt.mu.RUnlock()
	if !ok {
		n = rt.physicalOf(logical)
	}
	return n
}

func (rt *Runtime) dataTable(logical string) string     { return rt.names(logical).data }
func (rt *Runtime) shadowTable(logical string) string   { return rt.names(logical).shadow }
func (rt *Runtime) writeLogTable(logical string) string { return rt.names(logical).wlog }
func (rt *Runtime) shadowWriteLogTable(logical string) string {
	return rt.names(logical).shadowWlog
}

// SetLaunchBudget bounds how many times an async intent of this SSF is
// launched: its in-process fire counts as the first, and each intent-
// collector claim as one more. A claim that would go past n marks the intent
// dead instead (RunIntentCollector), and Redrive returns it to the pending
// index. n <= 0 means unbounded, the default.
func (rt *Runtime) SetLaunchBudget(n int) { rt.launchBudget.Store(int64(max(n, 0))) }

// Function returns the SSF's platform name.
func (rt *Runtime) Function() string { return rt.fn }

// Mode returns the runtime's machinery mode.
func (rt *Runtime) Mode() Mode { return rt.mode }

// Store returns the SSF's database (tests and the figure harness inspect
// it). The returned value is the storage seam; use storage.AsDynamo to
// reach in-memory-specific knobs where a bench needs them.
func (rt *Runtime) Store() storage.Backend { return rt.store }

// Platform returns the platform hosting the SSF.
func (rt *Runtime) Platform() *platform.Platform { return rt.plat }

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// now returns the runtime's current time in microseconds since the epoch —
// the timestamp unit used throughout the intent table.
func (rt *Runtime) now() int64 { return rt.clk.Now().UnixMicro() }

// Telemetry returns the runtime's telemetry hub, nil when telemetry is off.
func (rt *Runtime) Telemetry() *telemetry.Hub { return rt.tel }

// spanClock returns the current span timestamp (UnixNano on the runtime's
// clock); 0 when telemetry is off, so producer sites can use it as both
// the guard and the start time.
func (rt *Runtime) spanClock() int64 {
	if rt.tel == nil {
		return 0
	}
	return rt.clk.Now().UnixNano()
}

// span records one trace span; a no-op without a hub.
func (rt *Runtime) span(s telemetry.Span) {
	if rt.tel == nil {
		return
	}
	rt.tel.Tracer.Record(s)
}

// TailValue resolves the current value of key by one of the §4.1 traversal
// strategies, for the ablation benchmark: "one-query" is the production read
// (the skeleton query also projects the state), "scan" the paper's skeleton
// query followed by a read of the tail row, "pointer-chase" one read per row.
func TailValue(rt *Runtime, strategy, table, key string) (Value, error) {
	d := daal{rt: rt, table: rt.dataTable(table)}
	switch strategy {
	case "one-query":
		st, _, err := d.currentRow(key)
		return st.value, err
	case "scan":
		sk, err := d.scanSkeleton(key, skeletonPaths)
		if err != nil {
			return dynamo.Null, err
		}
		tail, _ := sk.tail() // nil for a never-written key: no such row, Null
		row, _, err := d.readRow(key, tail[attrRowID].Str())
		return row.value, err
	case "pointer-chase":
		row, _, err := d.tailByPointerChase(key)
		return row.value, err
	}
	return dynamo.Null, fmt.Errorf("core: unknown traversal strategy %q", strategy)
}

// PeekState reads the SSF's current committed value for key in one of its
// logical tables, bypassing the instance machinery — an inspection aid for
// tests, examples and operations tooling. Never-written keys read as Null.
func (rt *Runtime) PeekState(table, key string) (Value, error) {
	if rt.mode == ModeBaseline {
		it, ok, err := rt.store.Get(rt.dataTable(table), dynamo.HK(dynamo.S(key)))
		if err != nil || !ok {
			return dynamo.Null, err
		}
		return it[attrValue], nil
	}
	val, _, _, err := rt.layer().stateRead(table, key)
	return val, err
}

// Attribute and table-schema names shared across the core. An SSF's tables
// are fn plus a suffix; a data table is fn + dataInfix + logical, and its
// shadow and write logs add their suffixes to that.
const (
	intentSuffix    = ".intent"
	readLogSuffix   = ".readlog"
	invokeLogSuffix = ".invokelog"
	txCalleesSuffix = ".txcallees"
	txLocksSuffix   = ".txlocks"
	dataInfix       = ".data."
	sealedInfix     = ".sealed." // a sealed data table's marker (seal.go)
	shadowSuffix    = ".shadow"  // a data table's transaction-local copy
	wlogSuffix      = ".wlog"    // a cross-table data table's write log

	attrInstanceID = "InstanceId"
	attrID         = "Id"
	attrStep       = "Step"
	attrKey        = "Key"
	attrRowID      = "RowId"
	attrValue      = "Value"
	attrLogSize    = "LogSize"
	attrRecent     = "RecentWrites"
	attrRecycled   = "Recycled"
	attrNextRow    = "NextRow"
	attrLockOwner  = "LockOwner"
	attrDangleTime = "DangleTime"
	attrDone       = "Done"
	attrPending    = "Pending"
	attrAsync      = "Async"
	attrArgs       = "Args"
	attrRet        = "Ret"
	attrStartTime  = "StartTime"
	attrLastLaunch = "LastLaunch"
	attrLaunches   = "Launches" // intent: collector launches of an async intent under a launch budget
	attrDead       = "Dead"     // intent: when its launch budget ran out (off the pending index)
	attrFinishTime = "FinishTime"
	attrCalleeID   = "CalleeId"
	attrResult     = "Result"
	attrRelaunched = "Relaunched" // invoke log: a launch other than the callee's first was issued
	attrPosted     = "Posted"     // invoke log: the promise result of the async call the row logs
	attrTxnID      = "TxnId"
	attrCallee     = "Callee"
	attrTableKey   = "TableKey"
	attrOutcome    = "Outcome"

	indexPending = "pending"
)

// Conditions on fixed attributes, built once: a Cond is a boxed value, and
// every logged step evaluates one or more of these. The callback's and the
// relaunch's (resultUnset, …) live beside handleCallback.
var (
	idAbsent        = dynamo.NotExists(dynamo.A(attrID))
	idPresent       = dynamo.Exists(dynamo.A(attrID))
	instanceAbsent  = dynamo.NotExists(dynamo.A(attrInstanceID))
	instancePresent = dynamo.Exists(dynamo.A(attrInstanceID))
	keyAbsent       = dynamo.NotExists(dynamo.A(attrKey))
	nextRowAbsent   = dynamo.NotExists(dynamo.A(attrNextRow))
	dangleAbsent    = dynamo.NotExists(dynamo.A(attrDangleTime))
	postedPresent   = dynamo.Exists(dynamo.A(attrPosted))
	postedAbsent    = dynamo.NotExists(dynamo.A(attrPosted))
	// deadUndone is an intent a claim marked dead that no late execution
	// has completed since.
	deadUndone = dynamo.And(dynamo.Exists(dynamo.A(attrDead)), dynamo.Eq(dynamo.A(attrDone), dynamo.Bool(false)))
	// doneUnstamped is a finished intent the collector has not stamped yet.
	doneUnstamped = dynamo.And(dynamo.Eq(dynamo.A(attrDone), dynamo.Bool(true)),
		dynamo.NotExists(dynamo.A(attrFinishTime)))
)
