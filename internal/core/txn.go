package core

import (
	"errors"
	"fmt"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// Transactions (§6.2). A transaction is created by the SSF that calls
// Transaction (the paper's begin_tx/end_tx pair) and inherited by every SSF
// it invokes before the matching end. Under the hood:
//
//   - Execute mode takes a wait-die 2PL lock before every read, write and
//     condWrite (Fig 11), reads check the transaction's shadow copy first
//     (read-your-writes), and writes go only to the shadow table — so the
//     real tables never expose uncommitted state, giving opacity (§6.2,
//     Fig 12): even doomed transactions read a consistent snapshot.
//   - Commit flushes shadow values to the real linked DAALs, releases
//     locks, and recursively invokes the SSF's transactional callees with
//     the context in Commit mode — the workflow itself plays the 2PC
//     coordinator. Abort skips the flush and propagates the same way.
//
// Two durable per-SSF registries make the protocol replay- and crash-safe
// without any in-memory coordinator state: txLocks records every (table,
// key) this SSF locked under a transaction id, and txCallees records every
// callee it invoked inside the transaction. A Commit/Abort-phase instance
// re-derives all of its obligations from those tables. (The paper leaves
// "notify its own callees" abstract; see DESIGN.md.)

// Transaction runs body with ACID semantics (opacity isolation). If this
// SSF was itself invoked inside an enclosing transaction, body simply joins
// it: begin/end pairs are inherited, not nested (§6.2). The body runs in a
// fresh goroutine so runtime panics become aborts rather than instance
// crashes ("to catch any runtime exceptions"). Returning ErrTxnAborted —
// or any other error — aborts; nil commits.
func (e *Env) Transaction(body func() error) error {
	if e.rt.mode == ModeBaseline {
		// Baseline has no transactions: run the operations bare. This is the
		// configuration whose inconsistent travel reservations the paper
		// calls out (§7.2).
		return body()
	}
	if e.shared.txn != nil {
		// Inherited context: ignore the begin/end markers.
		return body()
	}
	e.rt.stats.TxnBegun.Add(1)
	ctx := &TxnContext{
		ID:    e.instanceID + "#tx" + e.nextStepKey(),
		Mode:  TxExecute,
		Start: e.intent.startTime,
	}
	e.shared.txn = ctx

	bodyErr := runTxnBody(body)

	if bodyErr == nil {
		ctx.Mode = TxCommit
		t0 := e.rt.spanClock()
		if err := e.finishTxnLocal(ctx); err != nil {
			e.namedSpan(t0, telemetry.KindTxnCommit, "", ctx.ID, false, nil, err)
			return err
		}
		e.namedSpan(t0, telemetry.KindTxnCommit, "", ctx.ID, false, e.rt.histTxn, nil)
		e.shared.txn = nil
		e.rt.stats.TxnCommitted.Add(1)
		return nil
	}
	ctx.Mode = TxAbort
	e.rt.stats.TxnAborted.Add(1)
	t0 := e.rt.spanClock()
	if err := e.finishTxnLocal(ctx); err != nil {
		e.namedSpan(t0, telemetry.KindTxnAbort, "", ctx.ID, false, nil, err)
		return err
	}
	e.namedSpan(t0, telemetry.KindTxnAbort, "", ctx.ID, false, nil, nil)
	e.shared.txn = nil
	if errors.Is(bodyErr, ErrTxnAborted) {
		return ErrTxnAborted
	}
	return fmt.Errorf("%w: %v", ErrTxnAborted, bodyErr)
}

// runTxnBody executes the transaction's operations under a recovery
// barrier, converting runtime exceptions into abort-causing errors (the
// §6.2 "execute in a new thread to catch any runtime exceptions" — Go's
// recover gives the same catch semantics without losing the goroutine's
// identity). A platform kill is NOT an exception: it re-raises so the
// worker actually dies and the intent collector takes over.
func runTxnBody(body func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if platform.IsInjectedCrash(r) {
				panic(r)
			}
			err = fmt.Errorf("transaction body panic: %v", r)
		}
	}()
	return body()
}

// recordTxnCallee durably notes that this SSF invoked callee inside the
// transaction, so a later Commit/Abort phase can propagate along the same
// workflow edge. Idempotent (at-least-once is enough: the set is keyed).
func (e *Env) recordTxnCallee(callee string) error {
	return e.update("txn", e.rt.txCallees,
		dynamo.HSK(dynamo.S(e.shared.txn.ID), dynamo.S(callee)), nil)
}

// recordTxnLock durably notes a lock this SSF acquired for the transaction.
func (e *Env) recordTxnLock(table, key string) error {
	return e.update("txn", e.rt.txLocks,
		dynamo.HSK(dynamo.S(e.shared.txn.ID), dynamo.S(table+"|"+key)), nil)
}

// txnLock acquires key's lock for the transaction with wait-die deadlock
// prevention (see lockRefused).
func (e *Env) txnLock(table, key string) error {
	e.rt.stats.Locks.Add(1)
	// Register the lock intention BEFORE acquiring: if the instance dies
	// between the two, the abort phase releases a lock that may not be held
	// (a harmless conditional no-op); the reverse order would leak a held,
	// unregistered lock forever.
	if err := e.recordTxnLock(table, key); err != nil {
		return err
	}
	return e.acquireLock(table, key, e.shared.txn)
}

// olderOrSame reports whether (aStart, aID) has wait-die priority over
// (bStart, bID): strictly older start time, with the id breaking ties.
func olderOrSame(aStart int64, aID string, bStart int64, bID string) bool {
	if aStart != bStart {
		return aStart < bStart
	}
	return aID <= bID
}

// shadowKey namespaces a key inside the shadow table by transaction.
func shadowKey(txnID, key string) string { return txnID + "|" + key }

// txnRead: lock, then read the transaction's effective view of the item;
// the value is recorded in the read log so replays see the identical
// snapshot.
func (e *Env) txnRead(table, key string) (Value, error) {
	if err := e.txnLock(table, key); err != nil {
		return dynamo.Null, err
	}
	stepKey := e.nextStepKey()
	t0 := e.rt.spanClock()
	e.crash("txnread:pre:", stepKey)
	val, replay, err := e.txnView(stepKey, table, key)
	e.stepSpan(t0, telemetry.KindRead, stepKey, table, key, replay, nil, err)
	if err != nil {
		return dynamo.Null, err
	}
	e.crash("txnread:post:", stepKey)
	return val, nil
}

// txnView is the logged read of the transaction's effective view of an item
// it holds the lock on: the shadow copy first (read-your-writes), else the
// real table.
func (e *Env) txnView(stepKey, table, key string) (Value, bool, error) {
	val, replay, err := e.replayedRead(stepKey)
	if err != nil || replay {
		return val, replay, err
	}
	layer := e.rt.layer()
	val, _, found, err := layer.shadow().stateRead(table, shadowKey(e.shared.txn.ID, key))
	if err == nil && !found {
		val, _, _, err = layer.stateRead(table, key)
	}
	if err != nil {
		return dynamo.Null, false, err
	}
	e.queueRead(stepKey, val)
	return val, false, nil
}

// txnWrite: lock, then write to the transaction's shadow copy.
func (e *Env) txnWrite(table, key string, v Value) error {
	if err := e.txnLock(table, key); err != nil {
		return err
	}
	stepKey := e.nextStepKey()
	t0 := e.rt.spanClock()
	e.crash("txnwrite:pre:", stepKey)
	var replay bool
	_, err := e.loggedMutate(e.rt.layer().shadow(), "write", table, shadowKey(e.shared.txn.ID, key),
		stepKey, e.stepMutation(mutation{setVal: &v}, &replay))
	e.stepSpan(t0, telemetry.KindWrite, stepKey, table, key, replay, e.rt.histStep, err)
	e.crash("txnwrite:post:", stepKey)
	return err
}

// txnCondWrite: lock, evaluate cond against the transaction's effective
// view of the item, and apply to the shadow if it holds. Determinism on
// replay comes from the logged effective read.
func (e *Env) txnCondWrite(table, key string, v Value, cond dynamo.Cond) (bool, error) {
	if err := e.txnLock(table, key); err != nil {
		return false, err
	}
	val, _, err := e.txnView(e.nextStepKey(), table, key)
	if err != nil {
		return false, err
	}
	if !cond.Eval(dynamo.Item{attrValue: val}) {
		return false, nil
	}
	wStep := e.nextStepKey()
	t0 := e.rt.spanClock()
	e.crash("txncondwrite:pre:", wStep)
	var replay bool
	_, err = e.loggedMutate(e.rt.layer().shadow(), "condwrite", table, shadowKey(e.shared.txn.ID, key),
		wStep, e.stepMutation(mutation{setVal: &v}, &replay))
	e.stepSpan(t0, telemetry.KindCondWrite, wStep, table, key, replay, e.rt.histStep, err)
	e.crash("txncondwrite:post:", wStep)
	return err == nil, err
}

// finishTxnLocal runs the local half of commit/abort for this SSF, then
// propagates to its callees. Crash-safe: every action is a logged operation
// of this same instance, so a re-execution resumes where it left off
// (§6.2). A per-(SSF, transaction) settle claim makes the recursive
// propagation terminate on cyclic workflows: the first instance to settle
// this SSF's state for the transaction claims it; later notifications
// arriving around a cycle find the claim and stop.
func (e *Env) finishTxnLocal(ctx *TxnContext) error {
	claimed, err := e.claimTxnSettle(ctx)
	if err != nil {
		return err
	}
	if !claimed {
		return nil
	}
	if err := e.settleTxnState(ctx); err != nil {
		return err
	}
	return e.notifyTxnCallees(ctx)
}

// settleMarker is the reserved txCallees sort key recording the settle
// claim; "\x00" keeps it out of the function-name namespace.
const settleMarker = "\x00settled"

// claimTxnSettle claims the right to settle this SSF's transaction state.
// The claim is keyed to the claiming instance so the claimant's own
// re-execution (after a mid-settle crash) passes the check and resumes.
func (e *Env) claimTxnSettle(ctx *TxnContext) (bool, error) {
	err := e.update("txn", e.rt.txCallees,
		dynamo.HSK(dynamo.S(ctx.ID), dynamo.S(settleMarker)),
		dynamo.Or(
			instanceAbsent,
			dynamo.Eq(dynamo.A(attrInstanceID), dynamo.S(e.instanceID)),
		),
		dynamo.Set(dynamo.A(attrInstanceID), dynamo.S(e.instanceID)))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return false, nil
	}
	return false, err
}

// settleTxnState flushes (on commit) and unlocks everything this SSF's
// registries record for the transaction.
func (e *Env) settleTxnState(ctx *TxnContext) error {
	entries, err := e.rt.store.Query(e.rt.txLocks, dynamo.S(ctx.ID), dynamo.QueryOpts{})
	if err != nil {
		return err
	}
	layer := e.rt.layer()
	for _, it := range entries {
		table, key := splitTableKey(it[attrTableKey].Str())
		if ctx.Mode == TxCommit {
			sval, _, found, err := layer.shadow().stateRead(table, shadowKey(ctx.ID, key))
			if err != nil {
				return err
			}
			if found {
				stepKey := e.nextStepKey()
				e.crash("txnflush:pre:", stepKey)
				if _, err := e.loggedMutate(layer, "write", table, key, stepKey,
					mutation{setVal: &sval}); err != nil {
					return err
				}
				e.crash("txnflush:post:", stepKey)
			}
		}
		if err := e.unlockAs(layer, table, key, ctx.ID); err != nil {
			return err
		}
	}
	return nil
}

// notifyTxnCallees invokes each recorded callee with the decided context —
// the second phase of the collaborative 2PC (§6.2).
func (e *Env) notifyTxnCallees(ctx *TxnContext) error {
	callees, err := e.rt.store.Query(e.rt.txCallees, dynamo.S(ctx.ID), dynamo.QueryOpts{})
	if err != nil {
		return err
	}
	for _, it := range callees {
		callee := it[attrCallee].Str()
		if callee == settleMarker {
			continue
		}
		if _, err := e.syncInvoke(callee, dynamo.Null, ctx); err != nil {
			return err
		}
	}
	return nil
}

func splitTableKey(s string) (table, key string) {
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}
