package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/dynamo"
)

// kvLayer abstracts how an SSF's data tables store item state and write
// logs. Two implementations exist, matching the paper's §7.3 comparison:
// the linked DAAL (daalLayer) and a separate write-log table updated with
// cross-table transactions (crossTableLayer). The exactly-once read/invoke
// machinery above this interface is shared.
type kvLayer interface {
	// stateRead returns the item's current value and lock owner. found is
	// false for never-written keys (value Null).
	stateRead(logical, key string) (val, lock Value, found bool, err error)
	// loggedMutate atomically checks mut's guard, applies the mutation, and
	// records logKey in the item's write log — exactly once per logKey. It
	// returns the recorded outcome: true when the guard held (mutation
	// applied), false when it did not.
	loggedMutate(logical, key, logKey string, mut mutation) (bool, error)
	// shadow returns the layer over the shadow tables (transaction-local
	// copies, §6.2).
	shadow() kvLayer
}

// splitLogKey separates "instanceID#branch.step" into the intent id and the
// branch-qualified step, the write-log table coordinates used by the
// cross-table layer and the GC.
func splitLogKey(logKey string) (id, step string) {
	if i := strings.LastIndex(logKey, "#"); i >= 0 {
		return logKey[:i], logKey[i+1:]
	}
	return logKey, ""
}

// ----- linked DAAL layer (§4) -----

type daalLayer struct {
	rt       *Runtime
	isShadow bool
}

func (l daalLayer) physical(logical string) string {
	if l.isShadow {
		return l.rt.shadowTable(logical)
	}
	return l.rt.dataTable(logical)
}

func (l daalLayer) stateRead(logical, key string) (Value, Value, bool, error) {
	d := daal{rt: l.rt, table: l.physical(logical)}
	row, ok, err := d.currentRow(key)
	if err != nil || !ok {
		return dynamo.Null, dynamo.Null, false, err
	}
	return row.value, row.lock, true, nil
}

func (l daalLayer) loggedMutate(logical, key, logKey string, mut mutation) (bool, error) {
	d := daal{rt: l.rt, table: l.physical(logical)}
	return d.loggedWrite(key, logKey, mut)
}

func (l daalLayer) shadow() kvLayer { return l.rt.kvShadow }

// ----- cross-table transaction layer (§7.3 comparator) -----
//
// Item state lives in a single row per key; each write-log entry is a row of
// a separate log table, written atomically with the data row via the store's
// multi-table transaction. Reads skip the DAAL scan (one Get), writes pay
// the transactional round trip — the cost trade Figure 13 measures.

type crossTableLayer struct {
	rt       *Runtime
	isShadow bool
}

func (l crossTableLayer) dataPhysical(logical string) string {
	if l.isShadow {
		return l.rt.shadowTable(logical)
	}
	return l.rt.dataTable(logical)
}

func (l crossTableLayer) logPhysical(logical string) string {
	if l.isShadow {
		return l.rt.shadowWriteLogTable(logical)
	}
	return l.rt.writeLogTable(logical)
}

func (l crossTableLayer) stateRead(logical, key string) (Value, Value, bool, error) {
	it, ok, err := l.rt.store.Get(l.dataPhysical(logical), dynamo.HK(dynamo.S(key)))
	if err != nil || !ok {
		return dynamo.Null, dynamo.Null, false, err
	}
	return it[attrValue], it[attrLockOwner], true, nil
}

func (l crossTableLayer) loggedMutate(logical, key, logKey string, mut mutation) (bool, error) {
	dataT, logT := l.dataPhysical(logical), l.logPhysical(logical)
	id, step := splitLogKey(logKey)
	logKeyD := dynamo.HSK(dynamo.S(id), dynamo.S(step))
	dataKey := dynamo.HK(dynamo.S(key))

	// First attempt: guard holds and the step is new — apply and log
	// atomically across the two tables (the analogue of case B1).
	err := l.rt.store.TransactWrite([]dynamo.TxOp{
		{Table: dataT, Key: dataKey, Cond: mut.guard(), Updates: mut.appendUpdates(nil)},
		{Table: logT, Key: logKeyD, Cond: idAbsent,
			Updates: []dynamo.Update{dynamo.Set(dynamo.A(attrOutcome), dynamo.Bool(true))}},
	})
	if err == nil {
		return true, nil
	}
	var canceled *dynamo.TxCanceledError
	if !errors.As(err, &canceled) {
		return false, err
	}
	if canceled.Reasons[1] != nil {
		// The log entry exists: this step already executed (case A);
		// return its recorded outcome.
		mut.markReplayed()
		return l.readOutcome(logT, logKeyD)
	}
	// The guard failed: record the false conditional (case B2). The first
	// attempt is the serialization point, so recording false remains valid
	// even if a concurrent mutation has since made the guard true
	// (Appendix A). A conditional failure here means a concurrent executor
	// of the same step won; adopt its outcome.
	err = l.rt.store.TransactWrite([]dynamo.TxOp{
		{Table: logT, Key: logKeyD, Cond: idAbsent,
			Updates: []dynamo.Update{dynamo.Set(dynamo.A(attrOutcome), dynamo.Bool(false))}},
	})
	if err == nil {
		return false, nil
	}
	if errors.Is(err, dynamo.ErrConditionFailed) {
		mut.markReplayed()
		return l.readOutcome(logT, logKeyD)
	}
	return false, err
}

func (l crossTableLayer) readOutcome(logT string, key dynamo.Key) (bool, error) {
	it, ok, err := l.rt.store.Get(logT, key)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, fmt.Errorf("core: cross-table write log row vanished: %s %s", logT, key)
	}
	return it[attrOutcome].BoolVal(), nil
}

func (l crossTableLayer) shadow() kvLayer { return l.rt.kvShadow }

// layer returns the runtime's kvLayer for its mode.
func (rt *Runtime) layer() kvLayer { return rt.kv }
