package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dynamo"
)

// This file implements the linked DAAL (§4.1, Figure 4): a per-item linked
// list of rows, each row holding the item's key, a value, lock-owner
// metadata, a bounded write log, and a pointer to the next row. Log/update
// pairs are applied atomically within one row — the store's atomicity scope
// — and new rows are appended when the tail's log fills, so the structure
// works on databases whose atomicity scope is far smaller than Olive's
// DAAL assumed.
//
// Row ids are deterministic ("r00000000" for the head, then r00000001, ...):
// concurrent appenders race to create the *same* successor row with a
// conditional put, so a lost race leaves no orphan rows behind. The paper
// tolerates orphans from failed appends (§4.1); deterministic ids make them
// impossible while preserving every observable property the protocols rely
// on, and the GC stays exactly as described.

// headRowID is the special row id of the never-collected head row.
const headRowID = "r00000000"

// nextRowID returns the deterministic successor id.
func nextRowID(id string) string {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "r"))
	if err != nil {
		// Corrupt row id: surface loudly, this is a programming error.
		panic(fmt.Sprintf("core: malformed DAAL row id %q", id))
	}
	return fmt.Sprintf("r%08d", n+1)
}

// daal operates on one physical linked-DAAL table.
type daal struct {
	rt    *Runtime
	table string
}

// daalRow is a decoded row.
type daalRow struct {
	key      string
	rowID    string
	value    Value
	lock     Value // Null or M{Id, Start}
	logSize  int
	recent   Value  // the write log, a map value: logKey -> outcome
	recycled Value  // a map value: logKey -> true, marked recyclable by the GC
	next     string // "" when this row is the tail
	dangle   int64  // 0 when not dangling
}

func decodeDAALRow(it dynamo.Item) daalRow {
	r := daalRow{
		key:   it[attrKey].Str(),
		rowID: it[attrRowID].Str(),
		value: it[attrValue],
		lock:  it[attrLockOwner],
	}
	r.logSize = int(it[attrLogSize].Int())
	r.recent, r.recycled = it[attrRecent], it[attrRecycled]
	if v, ok := it[attrNextRow]; ok && !v.IsNull() {
		r.next = v.Str()
	}
	if v, ok := it[attrDangleTime]; ok {
		r.dangle = v.Int()
	}
	return r
}

// mutation describes what a logged conditional write does to the row: an
// optional guard over the row's Value/LockOwner and new values for either.
// Plain writes set value with a True guard; lock operations guard and set
// LockOwner (§6.1 stores lock ownership "alongside the data and logs").
type mutation struct {
	cond    dynamo.Cond // nil means unconditional
	setVal  Value       // the new Value, when hasVal
	hasVal  bool
	setLock *Value
	// fresh marks a step of a fresh execution (intentRecord.fresh): no log
	// row of its instance pre-dates it, so a head-first attempt is worth
	// its op (daal.headFirst).
	fresh bool
	// replayed, when non-nil, is set true if the step's outcome turns out
	// to be already logged (case A) — the telemetry layer's replay marker.
	replayed *bool
}

// setTo is the unconditional mutation that stores v.
func setTo(v Value) mutation { return mutation{setVal: v, hasVal: true} }

// markReplayed flags the step as already-logged for the telemetry layer.
func (m mutation) markReplayed() {
	if m.replayed != nil {
		*m.replayed = true
	}
}

func (m mutation) guard() dynamo.Cond {
	if m.cond == nil {
		return dynamo.True()
	}
	return m.cond
}

// numUpdates is how many actions appendUpdates appends.
func (m mutation) numUpdates() int {
	n := 0
	if m.hasVal {
		n++
	}
	if m.setLock != nil {
		n++
	}
	return n
}

// appendUpdates appends the mutation's actions to ups.
func (m mutation) appendUpdates(ups []dynamo.Update) []dynamo.Update {
	if m.hasVal {
		ups = append(ups, dynamo.Set(dynamo.A(attrValue), m.setVal))
	}
	if m.setLock != nil {
		ups = append(ups, dynamo.Set(dynamo.A(attrLockOwner), *m.setLock))
	}
	return ups
}

// skeleton is the locally reconstructed structure of a linked DAAL from one
// scan+projection round trip (§4.1): the query's projected rows, in sort-key
// (row id) order. A chain is a few rows, so rows are found by walking it.
type skeleton []dynamo.Item

// skeletonPaths is the skeleton's own projection, RowId and NextRow (256 bits
// per row, §4.1); readProjection adds the item's state for the read path.
// Shared by every query: backends only read a projection.
var (
	skeletonPaths  = []dynamo.Path{dynamo.A(attrRowID), dynamo.A(attrNextRow)}
	readProjection = []dynamo.Path{dynamo.A(attrRowID), dynamo.A(attrNextRow), dynamo.A(attrValue), dynamo.A(attrLockOwner)}
)

// scanSkeleton queries every row of key's DAAL in one consistent snapshot,
// projecting proj (skeletonPaths and more): the write path adds its single
// write-log entry — the "has this step already executed anywhere" check
// (§4.3) — and the read path (readProjection) Value and LockOwner, so the
// tail's state comes back with the traversal instead of by a second fetch.
func (d *daal) scanSkeleton(key string, proj []dynamo.Path) (skeleton, error) {
	return d.rt.store.Query(d.table, dynamo.S(key), dynamo.QueryOpts{Projection: proj})
}

// logProjection is the write path's projection: the skeleton plus logKey's
// entry in the write log.
func logProjection(logKey string) []dynamo.Path {
	return []dynamo.Path{dynamo.A(attrRowID), dynamo.A(attrNextRow), dynamo.AK(attrRecent, logKey)}
}

// find returns the index of row id, searching from index from onward and
// wrapping around: rows come back in id order, so a row's successor is
// normally the next one. -1 when the snapshot has no such row.
func (sk skeleton) find(id string, from int) int {
	for n := 0; n < len(sk); n++ {
		i := (from + n) % len(sk)
		if sk[i][attrRowID].Str() == id {
			return i
		}
	}
	return -1
}

// tail walks the skeleton from the head to the first row without a next
// pointer and returns that row. ok is false when the DAAL has no head yet
// (never-written key). Rows disconnected by the GC are unreachable from the
// head and therefore ignored, per §5.
func (sk skeleton) tail() (_ dynamo.Item, ok bool) {
	i := sk.find(headRowID, 0)
	if i < 0 {
		return nil, false
	}
	for {
		nv, linked := sk[i][attrNextRow]
		if !linked || nv.IsNull() {
			return sk[i], true
		}
		next := sk.find(nv.Str(), i+1)
		if next < 0 {
			// The pointer's target is missing from the snapshot; the store
			// scan is a consistent snapshot so this indicates the target was
			// GC-deleted — treat the current row as the effective end; the
			// conditional-write case analysis self-corrects from there.
			return sk[i], true
		}
		i = next
	}
}

// findLog reports whether logKey appeared in any scanned (reachable or
// orphaned) row, and its recorded outcome. Scans may return disconnected
// rows; finding the entry in any of them is sufficient for case A, because
// log entries are never moved between rows.
func (sk skeleton) findLog(logKey string) (Value, bool) {
	for _, it := range sk {
		if out, ok := it.Get(dynamo.AK(attrRecent, logKey)); ok {
			return out, true
		}
	}
	return dynamo.Null, false
}

// readRow fetches one full row.
func (d *daal) readRow(key, rowID string) (daalRow, bool, error) {
	it, ok, err := d.rt.store.Get(d.table, dynamo.HSK(dynamo.S(key), dynamo.S(rowID)))
	if err != nil || !ok {
		return daalRow{}, false, err
	}
	return decodeDAALRow(it), true, nil
}

// firstWrite is loggedWrite on a key whose DAAL has no head: one upsert,
// conditional on the head's absence, creates the head with the step's outcome
// already logged. That condition is what makes the outcome known here: the
// row the guard must hold against is exactly the empty head (Value Null,
// nothing logged, no lock), so it is evaluated locally, and the row written
// is attribute for attribute what creating an empty head and then applying
// case B1 or B2 to it would leave. won is false when another writer created
// the head first; the caller then proceeds as for any existing row.
func (d *daal) firstWrite(key, logKey string, mut mutation) (won, outcome bool, _ error) {
	outcome = mut.cond == nil || mut.cond.Eval(dynamo.Item{attrKey: dynamo.S(key),
		attrRowID: dynamo.S(headRowID), attrValue: dynamo.Null, attrLogSize: dynamo.N(0)})
	ups := make([]dynamo.Update, 0, 3+mut.numUpdates())
	ups = append(ups,
		dynamo.Set(dynamo.A(attrLogSize), dynamo.N(1)),
		dynamo.Set(dynamo.AK(attrRecent, logKey), dynamo.Bool(outcome)),
	)
	if outcome {
		ups = mut.appendUpdates(ups)
	}
	if !outcome || !mut.hasVal {
		ups = append(ups, dynamo.Set(dynamo.A(attrValue), dynamo.Null))
	}
	err := d.rt.store.Update(d.table, rowKeyOf(key, headRowID), keyAbsent, ups...)
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return false, false, nil
	}
	return err == nil, outcome, err
}

// appendRow extends the DAAL past a full row (case D, §4.3). The new row
// carries the full row's value and lock owner — both immutable once the row
// filled, since every mutation is guarded by LogSize < N — so the tail
// always holds the item's most recent state.
func (d *daal) appendRow(prev daalRow) (string, error) {
	newID := nextRowID(prev.rowID)
	err := d.rt.store.Put(d.table, successorRow(prev), keyAbsent)
	if err != nil && !errors.Is(err, dynamo.ErrConditionFailed) {
		return "", err
	}
	if h := FaultStallAppend.Load(); h != nil {
		(*h)() // see simfault.go
	}
	// Link the predecessor. A conditional failure means a concurrent
	// appender already linked it — to the same deterministic id.
	err = d.rt.store.Update(d.table,
		dynamo.HSK(dynamo.S(prev.key), dynamo.S(prev.rowID)),
		nextRowAbsent,
		dynamo.Set(dynamo.A(attrNextRow), dynamo.S(newID)))
	if err != nil && !errors.Is(err, dynamo.ErrConditionFailed) {
		return "", err
	}
	return newID, nil
}

// successorRow is the row appendRow puts past the full row prev: the
// deterministic next id, prev's value and lock, an empty log.
func successorRow(prev daalRow) dynamo.Item {
	item := dynamo.Item{
		attrKey:     dynamo.S(prev.key),
		attrRowID:   dynamo.S(nextRowID(prev.rowID)),
		attrValue:   prev.value,
		attrLogSize: dynamo.N(0),
	}
	if !prev.lock.IsNull() {
		item[attrLockOwner] = prev.lock
	}
	return item
}

// headFirst is case B1 addressed to the head without a scan: one update that
// sets v and logs logKey, conditional on the head having room, no NextRow and
// no entry for logKey — or on there being no head at all, when the update is
// an upsert that writes, attribute for attribute, the row firstWrite writes.
// done is false when the condition failed; the caller then walks as usual.
//
// The condition is the whole case analysis of a one-row item. A successor is
// put only past a full row and linked before anything is logged into it, the
// GC rewires a head's NextRow but never clears it, and LogSize never falls:
// so a head with room and no NextRow is the item's only row, and the entry's
// absence from it is case A's check. A collected shadow chain loses its head
// last (gcChain), so no head means no rows. None of this depends on the step
// being fresh or on the grown hint: those decide only whether the attempt is
// worth its op.
func (d *daal) headFirst(key, logKey string, v Value) (done bool, _ error) {
	a := &struct { // the condition's operands and the actions, one allocation
		conds [2]dynamo.Cond
		ups   [3]dynamo.Update
	}{
		conds: [2]dynamo.Cond{dynamo.NotExists(dynamo.AK(attrRecent, logKey)), d.rt.headRoom},
		ups: [3]dynamo.Update{
			dynamo.Set(dynamo.A(attrValue), v),
			dynamo.Add(dynamo.A(attrLogSize), 1),
			dynamo.Set(dynamo.AK(attrRecent, logKey), dynamo.Bool(true)),
		},
	}
	cond := dynamo.Cond(dynamo.CondAnd{Conds: a.conds[:]})
	if FaultHeadFirstSkipsLoggedCheck.Load() {
		cond = d.rt.headRoom // see simfault.go
	}
	err := d.rt.store.Update(d.table, rowKeyOf(key, headRowID), cond, a.ups[:]...)
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return false, nil
	}
	return err == nil, err
}

// hintSet is a runtime's set of string pairs behind a hint: a wrong entry
// costs a refused attempt, never a wrong result. Runtime.grown is the
// head-first hint: per physical table, the keys this runtime has seen with a
// row past the head, on which a head-first attempt would be refused. It never
// forgets a key — a head's NextRow, once set, stays set — and a stale entry
// (a shadow chain collected whole) costs only the walk's scan. Runtime.pure
// is the pure-call hint, per app, of callees (invoke.go).
type hintSet struct {
	mu   sync.RWMutex
	keys map[hintKey]struct{}
}

type hintKey struct{ a, b string }

func (g *hintSet) has(a, b string) bool {
	g.mu.RLock()
	_, ok := g.keys[hintKey{a, b}]
	g.mu.RUnlock()
	return ok
}

func (g *hintSet) add(a, b string) {
	if g.has(a, b) {
		return
	}
	g.mu.Lock()
	if g.keys == nil {
		g.keys = make(map[hintKey]struct{})
	}
	g.keys[hintKey{a, b}] = struct{}{}
	g.mu.Unlock()
}

func (g *hintSet) remove(a, b string) {
	if !g.has(a, b) {
		return
	}
	g.mu.Lock()
	delete(g.keys, hintKey{a, b})
	g.mu.Unlock()
}

// loggedWrite performs the lock-free logged conditional write of §4.3/§4.4
// (Figures 6, 7, 17, 18): find the tail, check whether logKey already
// executed, atomically apply-and-log, appending rows as needed. It returns
// the operation's outcome — true when the mutation's guard held and the
// mutation was applied (now or by a previous execution of this step), false
// when the guard failed (recorded as a false conditional, case B2).
//
// A fresh step that sets a value unconditionally, on a key not known to have
// grown past its head, first tries headFirst: one op when the item is one
// row. Everything else, and a refused attempt, walks.
//
// The walk is one loop with one hop budget: a scan picks a start row and
// each full row hands on to its successor. A row that vanished under the
// walk restarts it from a fresh scan, unless its predecessor still links it:
// then it is an appended row a GC pass took before its link landed
// (appendRow), and the walk puts it back. Restarts spend the same budget, so
// a walk that cannot settle ends in an error naming the key.
func (d *daal) loggedWrite(key, logKey string, mut mutation) (bool, error) {
	if mut.fresh && mut.cond == nil && mut.hasVal && !d.rt.grown.has(d.table, key) {
		if done, err := d.headFirst(key, logKey, mut.setVal); done || err != nil {
			return done, err
		}
	}
	rowID := ""      // the row to try next; "" asks for a fresh scan
	var prev daalRow // the row whose NextRow named rowID; zero when a scan chose it
	var roomLeft dynamo.Cond
	var ups []dynamo.Update // case B1's, built once a first write did not settle the step
	for hop := 0; hop <= maxChainHops; hop++ {
		if rowID == "" {
			sk, err := d.scanSkeleton(key, logProjection(logKey))
			if err != nil {
				return false, err
			}
			if len(sk) > 1 {
				d.rt.grown.add(d.table, key)
			}
			if out, found := sk.findLog(logKey); found && !FaultDAALSkipsLoggedCheck.Load() {
				d.rt.stats.Replays.Add(1)
				mut.markReplayed()
				return out.BoolVal(), nil // case A, resolved by the scan
			}
			rowID, prev = headRowID, daalRow{}
			if tail, ok := sk.tail(); ok {
				rowID = tail[attrRowID].Str()
			} else if won, outcome, err := d.firstWrite(key, logKey, mut); won || err != nil {
				return outcome, err
			}
		}
		if ups == nil {
			roomLeft = dynamo.And(dynamo.NotExists(dynamo.AK(attrRecent, logKey)), d.rt.logRoom, nextRowAbsent)
			if FaultDAALSkipsLoggedCheck.Load() {
				roomLeft = dynamo.And(d.rt.logRoom, nextRowAbsent) // see simfault.go
			}
			ups = mut.appendUpdates(make([]dynamo.Update, 0, mut.numUpdates()+2))
			ups = append(ups,
				dynamo.Add(dynamo.A(attrLogSize), 1),
				dynamo.Set(dynamo.AK(attrRecent, logKey), dynamo.Bool(true)))
		}
		rowKey := rowKeyOf(key, rowID)

		// Case B1: guard holds, space available — apply and log atomically.
		err := d.rt.store.Update(d.table, rowKey, dynamo.And(mut.guard(), roomLeft), ups...)
		if !errors.Is(err, dynamo.ErrConditionFailed) {
			return err == nil, err
		}

		// Case B2: space available but the guard failed — record the false
		// conditional. Serialization point is the B1 attempt (§ Appendix A).
		// Skipped for unconditional mutations, whose guard cannot fail.
		if mut.cond != nil {
			err = d.rt.store.Update(d.table, rowKey, roomLeft,
				dynamo.Add(dynamo.A(attrLogSize), 1),
				dynamo.Set(dynamo.AK(attrRecent, logKey), dynamo.Bool(false)))
			if !errors.Is(err, dynamo.ErrConditionFailed) {
				return false, err
			}
		}

		// Cases A, C, D: inspect the row.
		row, ok, err := d.readRow(key, rowID)
		if err != nil {
			return false, err
		}
		if !ok {
			if prev.rowID == "" {
				rowID = "" // a stale reference to a collected row
			} else if err := d.repairSuccessor(prev); errors.Is(err, dynamo.ErrConditionFailed) {
				rowID = "" // prev no longer links it, or another walk put it back
			} else if err != nil {
				return false, err
			}
			continue
		}
		if out, done := row.recent.MapGet(logKey); done && !FaultDAALSkipsLoggedCheck.Load() {
			d.rt.stats.Replays.Add(1)
			mut.markReplayed()
			return out.BoolVal(), nil // case A
		}
		next := row.next
		if next == "" { // case D: full tail — extend
			if next, err = d.appendRow(row); err != nil {
				return false, err
			}
			row.next = next // the link appendRow wrote, which a repair checks
		}
		d.rt.grown.add(d.table, key)
		rowID, prev = next, row // case C
	}
	return false, fmt.Errorf("core: %s/%s: DAAL write walk exceeded %d hops", d.table, key, maxChainHops)
}

// maxChainHops bounds a DAAL walk; a DAAL under GC stays shallow, and a walk
// this long indicates a livelock-grade anomaly worth surfacing.
const maxChainHops = 1 << 16

// repairSuccessor puts back prev's missing successor, in one transaction
// that checks prev still links it: appendRow's own row, which a GC pass
// stamped and deleted while the appender stalled between its put and its
// link. The row held no logged step when it went — phase 5 deletes only a
// row whose LogSize is what its pass scanned, and a row no predecessor
// linked had none — and a full row's value and lock never change, so the
// row put back is the row that was lost.
func (d *daal) repairSuccessor(prev daalRow) error {
	err := d.rt.store.TransactWrite([]dynamo.TxOp{
		{Table: d.table, Key: rowKeyOf(prev.key, prev.rowID), Check: true,
			Cond: dynamo.Eq(dynamo.A(attrNextRow), dynamo.S(prev.next))},
		{Table: d.table, Key: rowKeyOf(prev.key, prev.next), Put: successorRow(prev), Cond: keyAbsent},
	})
	if err == nil {
		d.rt.stats.DAALRepairs.Add(1)
	}
	return err
}

// tailByPointerChase walks NextRow pointers with one read per row — the
// naive traversal §4.1 describes before introducing the scan+projection
// optimization. Kept as the ablation comparator (cost grows linearly with
// chain depth, one full-row round trip per hop, versus one scan).
func (d *daal) tailByPointerChase(key string) (daalRow, bool, error) {
	row, ok, err := d.readRow(key, headRowID)
	if err != nil || !ok {
		return daalRow{}, false, err
	}
	for hops := 0; row.next != ""; hops++ {
		if hops > maxChainHops {
			return daalRow{}, false, fmt.Errorf("core: %s/%s: pointer chase exceeded %d hops", d.table, key, maxChainHops)
		}
		next, ok, err := d.readRow(key, row.next)
		if err != nil {
			return daalRow{}, false, err
		}
		if !ok {
			// The successor was collected mid-walk; the row we hold is the
			// effective end of what we can see. Restart from the head.
			return d.tailByPointerChase(key)
		}
		row = next
	}
	return row, true, nil
}

// daalState is an item's current state: the tail row's id, value and lock
// owner (Null or M{Id, Start}).
type daalState struct {
	rowID       string
	value, lock Value
}

// currentRow returns the item's current state from one query: the skeleton
// scan already visits the tail in its consistent snapshot, so the state
// rides the traversal's projection instead of a second fetch. The write log
// is not projected (chain and readRow return full rows). ok is false for
// never-written keys.
func (d *daal) currentRow(key string) (daalState, bool, error) {
	sk, err := d.scanSkeleton(key, readProjection)
	if err != nil {
		return daalState{}, false, err
	}
	it, ok := sk.tail()
	if !ok {
		return daalState{}, false, nil
	}
	return daalState{rowID: it[attrRowID].Str(), value: it[attrValue], lock: it[attrLockOwner]}, true, nil
}

// chain returns key's rows indexed by id plus the head-reachable order —
// the GC's working view (§5). Full rows, not a projection: the GC inspects
// log contents.
func (d *daal) chain(key string) (map[string]daalRow, []string, error) {
	items, err := d.rt.store.Query(d.table, dynamo.S(key), dynamo.QueryOpts{})
	if err != nil {
		return nil, nil, err
	}
	rows := make(map[string]daalRow, len(items))
	for _, it := range items {
		r := decodeDAALRow(it)
		rows[r.rowID] = r
	}
	return rows, chainOrder(rows), nil
}
