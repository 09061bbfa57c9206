package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/uuid"
)

// Errors surfaced by Env operations.
var (
	// ErrTxnAborted reports that the enclosing transaction died under
	// wait-die (§6.2) or was aborted by the application. Operation results
	// accompanying it are meaningless; the body should return it promptly.
	ErrTxnAborted = errors.New("core: transaction aborted")
	// ErrLockUnavailable reports that a standalone Lock exhausted its retry
	// budget.
	ErrLockUnavailable = errors.New("core: lock unavailable")
	// ErrAsyncInTxn reports AsyncInvoke inside a transaction, which Beldi
	// does not support (§6.2).
	ErrAsyncInTxn = errors.New("core: asyncInvoke is not supported inside transactions")
)

// Body is an SSF's application logic, written against Env's API exactly as a
// bare handler would be written against the provider SDK (§3.2). Bodies must
// be deterministic given their logged operation results.
type Body func(e *Env, input Value) (Value, error)

// Env is the per-instance execution context: Beldi's API (Figure 2). An Env
// carries the instance id and a step counter so every external operation
// gets the unique, deterministic (instance, step) log key that the replay
// protocols key on (§3.1).
type Env struct {
	rt         *Runtime
	inv        *platform.Invocation
	ctx        context.Context
	instanceID string
	branch     string
	steps      atomic.Int64
	children   int // sequential Parallel groups spawned by this branch
	intent     *intentRecord
	shared     *envShared
}

// envShared is instance-level state shared across Parallel branches.
type envShared struct {
	txn    *TxnContext
	app    string // requesting application (§2.2 SSF reusability)
	reads  readLogState
	posted atomic.Pointer[postedResults] // nil until the instance awaits (see postedResults)
}

// rootEnv is an execution's root-branch Env together with the state its
// branches share, so one instance's runtime state is one allocation.
type rootEnv struct {
	env    Env
	shared envShared
}

// newEnv builds the root-branch Env of one execution. A fresh intent's read
// log is known empty without asking the store.
func newEnv(rt *Runtime, inv *platform.Invocation, id string, intent *intentRecord, app string) *Env {
	r := &rootEnv{shared: envShared{app: app}}
	r.shared.reads.loaded = intent.fresh
	r.env = Env{rt: rt, inv: inv, instanceID: id, branch: "0", intent: intent, shared: &r.shared}
	return &r.env
}

// table resolves a body-level table name for the requesting application.
func (e *Env) table(logical string) string {
	return e.rt.resolveLogical(e.shared.app, logical)
}

// App returns the requesting application's name, or "" for unscoped
// requests.
func (e *Env) App() string { return e.shared.app }

// InstanceID returns the instance id Beldi assigned to this execution intent
// (§3.3).
func (e *Env) InstanceID() string { return e.instanceID }

// Context returns the context this execution runs under: the caller's (an
// InvokeCtx entry or an SSF-to-SSF call carrying one), or
// context.Background() for context-free entries and collector restarts.
// Cancellation is observed at operation boundaries and inside every retry
// or poll wait (lock backoff, wait-die retries, promise awaits); it aborts
// the instance cleanly — the intent stays pending and the collector
// re-executes it later, with a fresh background context, so exactly-once is
// never weakened by giving up.
func (e *Env) Context() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	if e.inv != nil {
		return e.inv.Context()
	}
	return context.Background()
}

// nextBackoff is the retry schedule of lock acquisition and Await: each wait
// doubles the last, from LockRetryBase up to 128×.
func (rt *Runtime) nextBackoff(d time.Duration) time.Duration {
	return min(2*d, 128*rt.cfg.LockRetryBase)
}

// Runtime returns the SSF's runtime.
func (e *Env) Runtime() *Runtime { return e.rt }

// TxnID returns the enclosing transaction id, or "" outside transactions.
func (e *Env) TxnID() string {
	if e.shared.txn == nil {
		return ""
	}
	return e.shared.txn.ID
}

// nextStepKey allocates this branch's next step key ("branch.step", the
// step zero-padded to six digits), the sort-key half of a log key.
func (e *Env) nextStepKey() string {
	return uuid.Padded(e.branch, '.', uint64(e.steps.Add(1)), 6)
}

// logKey forms the full log key for a step.
func (e *Env) logKey(stepKey string) string { return e.instanceID + "#" + stepKey }

// crash marks an operation boundary for fault injection and timeout
// enforcement. Its label, point+step, is built only when a fault plan reads
// it or the instance dies there.
func (e *Env) crash(point, step string) {
	if e.inv != nil {
		e.inv.CrashPoint(point, step)
	}
}

// inExecute reports whether operations must follow transactional semantics.
func (e *Env) inExecute() bool {
	return e.shared.txn != nil && e.shared.txn.Mode == TxExecute
}

// stepSpan records the telemetry of one step on item key of table, named
// "table/key"; it no-ops without a hub, so the name is built only when one is
// attached.
func (e *Env) stepSpan(t0 int64, kind telemetry.Kind, stepKey, table, key string, replay bool, h *hist.Histogram, err error) {
	if e.rt.tel != nil {
		e.namedSpan(t0, kind, stepKey, table+"/"+key, replay, h, err)
	}
}

// namedSpan records one step's telemetry — a trace span plus, for fresh
// successful steps, an observation in h — and no-ops without a hub. t0 is
// rt.spanClock() taken before the operation.
func (e *Env) namedSpan(t0 int64, kind telemetry.Kind, stepKey, name string, replay bool, h *hist.Histogram, err error) {
	rt := e.rt
	if rt.tel == nil {
		return
	}
	end := rt.clk.Now().UnixNano()
	if h != nil && !replay && err == nil {
		h.Record(time.Duration(end - t0))
	}
	s := telemetry.Span{
		Intent: e.instanceID, Step: stepKey, Kind: kind, Fn: rt.fn,
		Name: name, Start: t0, End: end, Replay: replay,
	}
	if err != nil {
		s.Err = err.Error()
	}
	rt.span(s)
}

// stepMutation builds a step's mutation, attaching the telemetry replay
// flag when a hub is present.
func (e *Env) stepMutation(mut mutation, replay *bool) mutation {
	if e.rt.tel != nil {
		mut.replayed = replay
	}
	return mut
}

// Read returns the current value of key in the SSF's logical table (Fig 5).
// Never-written keys read as Null. Inside a transaction the key is locked
// and the transaction's own writes are visible (§6.2) — unless the table is
// sealed: nothing can write it, so the read takes no lock and no shadow.
func (e *Env) Read(table, key string) (Value, error) {
	e.rt.stats.Reads.Add(1)
	table = e.table(table)
	if e.rt.mode == ModeBaseline {
		return e.baselineRead(table, key)
	}
	sealed := e.rt.sealedTable(table)
	if sealed == nil && e.inExecute() {
		return e.txnRead(table, key)
	}
	return e.loggedRead(e.rt.layer(), sealed, table, key)
}

// loggedRead implements Figure 5 with a group-committed log: a step a
// previous execution logged returns that value without touching the store;
// otherwise the current value is fetched and its row queued, to become
// durable at the instance's next effect boundary (see readlog.go). The read
// itself has no external effect, so re-reading before the row is durable is
// harmless. A sealed table's value is served from its cache and queues no
// row: a re-execution reads the same value again (seal.go).
func (e *Env) loggedRead(layer kvLayer, sealed *sealedTable, table, key string) (Value, error) {
	stepKey := e.nextStepKey()
	t0 := e.rt.spanClock()
	e.crash("read:pre:", stepKey)
	val, replay, err := e.replayedRead(stepKey)
	switch {
	case err != nil || replay:
	case sealed != nil:
		val, err = sealed.read(layer, table, key)
	default:
		if val, _, _, err = layer.stateRead(table, key); err == nil {
			e.queueRead(stepKey, val)
		}
	}
	e.stepSpan(t0, telemetry.KindRead, stepKey, table, key, replay, nil, err)
	if err != nil {
		return dynamo.Null, err
	}
	e.crash("read:post:", stepKey)
	return val, nil
}

// Write stores v at key with exactly-once semantics (Fig 6). Inside a
// transaction the write goes to the transaction's shadow copy. A write of a
// sealed table fails with ErrTableSealed, as do CondWrite and Lock.
func (e *Env) Write(table, key string, v Value) error {
	e.rt.stats.Writes.Add(1)
	logical := table
	table = e.table(table)
	if err := e.rt.refuseSealed(table, key); err != nil {
		return err
	}
	if e.rt.mode == ModeBaseline {
		return e.baselineWrite(table, key, v)
	}
	if e.inExecute() {
		return e.txnWrite(table, key, v)
	}
	stepKey := e.nextStepKey()
	t0 := e.rt.spanClock()
	e.crash("write:pre:", stepKey)
	var replay bool
	_, err := e.loggedMutate(e.rt.layer(), "write", table, key, stepKey,
		e.stepMutation(mutation{setVal: &v}, &replay))
	e.stepSpan(t0, telemetry.KindWrite, stepKey, table, key, replay, e.rt.histStep, err)
	e.crash("write:post:", stepKey)
	if err != nil {
		return err
	}
	return e.emitChanges(logical, key, v)
}

// CondWrite stores v at key only if cond holds against the item's current
// row at write time (§4.4). cond is a condition over the attribute "Value"
// (use dynamo.Eq(dynamo.A("Value"), ...) and friends). It reports whether
// the write took effect; replays report the originally recorded outcome.
func (e *Env) CondWrite(table, key string, v Value, cond dynamo.Cond) (bool, error) {
	e.rt.stats.CondWrites.Add(1)
	logical := table
	table = e.table(table)
	if err := e.rt.refuseSealed(table, key); err != nil {
		return false, err
	}
	if e.rt.mode == ModeBaseline {
		return e.baselineCondWrite(table, key, v, cond)
	}
	if e.inExecute() {
		return e.txnCondWrite(table, key, v, cond)
	}
	stepKey := e.nextStepKey()
	t0 := e.rt.spanClock()
	e.crash("condwrite:pre:", stepKey)
	var replay bool
	ok, err := e.loggedMutate(e.rt.layer(), "condwrite", table, key, stepKey,
		e.stepMutation(mutation{cond: cond, setVal: &v}, &replay))
	e.stepSpan(t0, telemetry.KindCondWrite, stepKey, table, key, replay, e.rt.histStep, err)
	e.crash("condwrite:post:", stepKey)
	if err != nil || !ok {
		// An untaken CondWrite changed nothing; no event to emit. The
		// outcome is logged, so replays repeat the same (non-)emission.
		return ok, err
	}
	return ok, e.emitChanges(logical, key, v)
}

// lockOwnerValue builds the lock-owner column value: the owning intent and
// its creation time (wait-die priority).
func lockOwnerValue(id string, start int64) Value {
	return dynamo.Fields(dynamo.F(attrID, dynamo.S(id)), dynamo.F("Start", dynamo.NInt(start)))
}

// lockCond is the §6.1 acquisition guard: free, or already owned by this
// intent (locks are owned by intents, so a re-executed instance re-entering
// Lock sees its own ownership and continues).
func lockCond(ownerID string) dynamo.Cond {
	return dynamo.IsNullOr(dynamo.A(attrLockOwner),
		dynamo.Eq(dynamo.AK(attrLockOwner, attrID), dynamo.S(ownerID)))
}

// Lock acquires the mutual-exclusion lock on key, owned by this intent
// (§6.1, "locks with intent"): if the instance crashes while holding it,
// its re-execution resumes ownership rather than deadlocking. Standalone
// locks retry with backoff up to the configured budget. Inside transactions
// use Transaction, which locks implicitly with wait-die.
func (e *Env) Lock(table, key string) error {
	e.rt.stats.Locks.Add(1)
	table = e.table(table)
	if err := e.rt.refuseSealed(table, key); err != nil {
		return err
	}
	if e.rt.mode == ModeBaseline {
		return nil // baseline offers no synchronization (§7.2)
	}
	if e.inExecute() {
		return e.txnLock(table, key)
	}
	return e.acquireLock(table, key, nil)
}

// acquireLock is the acquisition loop of Lock and, with txn set, of txnLock:
// one logged conditional set of the lock column per attempt, between its
// crash points, and a backoff after each refusal, up to the retry budget.
// The whole acquisition, retries included, is one span.
func (e *Env) acquireLock(table, key string, txn *TxnContext) error {
	pre, post, ownerID, start := "lock:pre:", "lock:post:", e.instanceID, e.intent.startTime
	if txn != nil {
		pre, post, ownerID, start = "txnlock:pre:", "txnlock:post:", txn.ID, txn.Start
	}
	owner := lockOwnerValue(ownerID, start)
	backoff := e.rt.cfg.LockRetryBase
	t0 := e.rt.spanClock()
	for attempt := 0; attempt < e.rt.cfg.LockRetryMax; attempt++ {
		stepKey := e.nextStepKey()
		e.crash(pre, stepKey)
		replay := false
		ok, err := e.loggedMutate(e.rt.layer(), "lock", table, key, stepKey,
			e.stepMutation(mutation{cond: lockCond(ownerID), setLock: &owner}, &replay))
		e.crash(post, stepKey)
		if err == nil && !ok {
			if err = e.lockRefused(table, key, txn, backoff); err == nil {
				backoff = e.rt.nextBackoff(backoff)
				continue
			}
			replay = false
		}
		e.stepSpan(t0, telemetry.KindLock, stepKey, table, key, replay, e.rt.histLock, err)
		return err
	}
	e.stepSpan(t0, telemetry.KindLock, "", table, key, false, nil, ErrLockUnavailable)
	return fmt.Errorf("%w: %s/%s after %d attempts", ErrLockUnavailable, table, key, e.rt.cfg.LockRetryMax)
}

// lockRefused decides what follows a refused acquisition. Inside a
// transaction wait-die (Fig 11) dies — aborts — if the holder is older;
// priority is the intent-creation time with the id as tiebreak, a total
// order, so no cycles can form. Otherwise it waits out backoff. A wait
// canceled by the execution's context holds no lock (the attempt recorded
// false), so aborting leaves nothing to release; inside a transaction it
// aborts like a die, and the registered lock intention lets the abort phase
// release anything actually held.
func (e *Env) lockRefused(table, key string, txn *TxnContext, backoff time.Duration) error {
	if txn != nil {
		_, lock, _, err := e.rt.layer().stateRead(table, key)
		if err != nil {
			return err
		}
		if !lock.IsNull() {
			holderID, _ := lock.MapGet(attrID)
			holderStart, _ := lock.MapGet("Start")
			if olderOrSame(holderStart.Int(), holderID.Str(), txn.Start, txn.ID) {
				return ErrTxnAborted // die: the holder has priority
			}
		}
	}
	ctx := e.Context()
	if storage.Sleep(e.rt.clk, backoff, ctx.Done()) != storage.WakeCancel {
		return nil
	}
	err := fmt.Errorf("core: lock %s/%s: %w", table, key, ctx.Err())
	if txn != nil {
		err = fmt.Errorf("%w: %v", ErrTxnAborted, err)
	}
	return err
}

// Unlock releases a lock held by this intent. Releasing an already-released
// lock is a no-op (the recorded false outcome), which makes replayed
// unlocks safe even after another intent has re-acquired the lock (§6.1).
func (e *Env) Unlock(table, key string) error {
	e.rt.stats.Unlocks.Add(1)
	table = e.table(table)
	if e.rt.mode == ModeBaseline {
		return nil
	}
	ownerID := e.instanceID
	if e.shared.txn != nil {
		ownerID = e.shared.txn.ID
	}
	return e.unlockAs(e.rt.layer(), table, key, ownerID)
}

func (e *Env) unlockAs(layer kvLayer, table, key, ownerID string) error {
	stepKey := e.nextStepKey()
	t0 := e.rt.spanClock()
	e.crash("unlock:pre:", stepKey)
	null := dynamo.Null
	var replay bool
	_, err := e.loggedMutate(layer, "unlock", table, key, stepKey, e.stepMutation(mutation{
		cond:    dynamo.Eq(dynamo.AK(attrLockOwner, attrID), dynamo.S(ownerID)),
		setLock: &null,
	}, &replay))
	e.stepSpan(t0, telemetry.KindUnlock, stepKey, table, key, replay, nil, err)
	e.crash("unlock:post:", stepKey)
	return err
}

// Parallel runs branches concurrently, each with its own Env whose step
// keys live in a distinct, deterministic namespace — the §6.2 provision for
// SSFs that spawn threads issuing invocations. It waits for all branches
// and returns the first error (ErrTxnAborted wins over other errors so
// abort propagation is never masked).
func (e *Env) Parallel(branches ...func(*Env) error) error {
	errs := make([]error, len(branches))
	crashes := make([]any, len(branches))
	var wg sync.WaitGroup
	e.children++
	group := e.children
	for i, fn := range branches {
		// Branch names derive from declaration order within this branch's
		// own namespace, never from scheduling, so step keys replay
		// identically across re-executions.
		sub := &Env{
			rt:         e.rt,
			inv:        e.inv,
			ctx:        e.ctx,
			instanceID: e.instanceID,
			branch:     fmt.Sprintf("%s-%d-%d", e.branch, group, i),
			intent:     e.intent,
			shared:     e.shared,
		}
		wg.Add(1)
		go func(i int, fn func(*Env) error, sub *Env) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if platform.IsInjectedCrash(r) {
						// The worker is being killed; park the signal and
						// re-raise it on the parent goroutine after the
						// join, so the whole instance dies as one worker
						// would.
						crashes[i] = r
						return
					}
					errs[i] = fmt.Errorf("core: parallel branch panic: %v", r)
				}
			}()
			errs[i] = fn(sub)
		}(i, fn, sub)
	}
	wg.Wait()
	for _, c := range crashes {
		if c != nil {
			panic(c)
		}
	}
	var first error
	for _, err := range errs {
		if errors.Is(err, ErrTxnAborted) {
			return err
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sleep pauses the body (test/demo aid; uses the runtime clock).
func (e *Env) Sleep(d time.Duration) { e.rt.clk.Sleep(d) }
