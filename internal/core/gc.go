package core

import (
	"errors"
	"sort"
	"strings"

	"repro/internal/dynamo"
)

// The garbage collector (§5, Figure 10): a pass, run on a timer, that prunes
// the logs of long-finished intents and keeps every linked DAAL shallow,
// without blocking concurrent SSF, IC or other GC instances. Safety rests on
// the synchrony assumption that an SSF instance terminates within T (the
// platform enforces execution timeouts and Beldi's instances die at the next
// operation boundary past their deadline), so an intent that finished more
// than T ago can have no straggler instance left.
//
// The six phases:
//  1. stamp a finish time on newly done intents; intents whose stamp is
//     older than T become recyclable,
//  2. delete the read-log and invoke-log entries of recyclable intents (the
//     promise results posted into the invoke log go with them),
//  3. mark recyclable write-log entries inside DAAL rows (persistently, in
//     the row's Recycled set, so rows that become non-tail later can still
//     be judged),
//  4. disconnect fully recycled non-head, non-tail rows and stamp them with
//     a dangling time,
//  5. delete dangling rows once they have dangled for T (stragglers
//     mid-traversal have terminated by then),
//  6. delete the recyclable intents themselves — last, so a GC crash leaves
//     re-runnable work, keeping the whole collector at-least-once.
//
// Shadow DAALs (transaction-local copies, §6.2) are collected "including
// the head and tail": a shadow chain dies once the transaction's settle
// claimant is itself recyclable and every entry in the chain is recyclable.
// Transaction registries (txCallees/txLocks) die under the same rule.

// GCStats reports one collection pass's work.
type GCStats struct {
	Recycled         int // intents recycled this pass
	LogRowsDeleted   int // read/invoke-log rows removed
	RowsMarked       int // DAAL rows that had entries marked
	RowsDisconnected int
	RowsDeleted      int
	IntentsDeleted   int
}

// RunGarbageCollector performs one pass.
func (rt *Runtime) RunGarbageCollector() (GCStats, error) {
	var st GCStats
	now := rt.now()
	tUs := rt.cfg.T.Microseconds()

	// Phase 1: finish-time stamping and recyclability.
	recyclable, err := rt.gcPhaseStamp(now, tUs, &st)
	if err != nil {
		return st, err
	}

	// Phase 2: read/invoke logs. Iteration is sorted so a pass issues the
	// same operation sequence on every run — the determinism the simulator's
	// replay-from-seed depends on.
	for _, id := range sortedIDs(recyclable) {
		for _, tbl := range []string{rt.readLog, rt.invokeLog} {
			n, err := rt.deletePartition(tbl, id)
			if err != nil {
				return st, err
			}
			st.LogRowsDeleted += n
		}
	}

	// Phases 3–5 per data table, real and shadow.
	settled, err := rt.settledClaimants(now, tUs)
	if err != nil {
		return st, err
	}
	for _, logical := range rt.dataTables() {
		switch rt.mode {
		case ModeBeldi:
			if err := rt.gcDAALTable(rt.dataTable(logical), recyclable, nil, now, tUs, &st); err != nil {
				return st, err
			}
			if err := rt.gcDAALTable(rt.shadowTable(logical), recyclable, settled, now, tUs, &st); err != nil {
				return st, err
			}
		case ModeCrossTable:
			if err := rt.gcCrossTable(logical, recyclable, settled, &st); err != nil {
				return st, err
			}
		}
	}

	// Transaction registries.
	if err := rt.gcTxnRegistries(recyclable, settled, &st); err != nil {
		return st, err
	}

	// Phase 6: the intents themselves (sorted — see phase 2).
	for _, id := range sortedIDs(recyclable) {
		if err := rt.store.Delete(rt.intentTable, dynamo.HK(dynamo.S(id)), nil); err != nil {
			return st, err
		}
		st.IntentsDeleted++
	}
	rt.stats.GCRuns.Add(1)
	rt.stats.GCIntents.Add(int64(st.IntentsDeleted))
	rt.stats.GCLogRows.Add(int64(st.LogRowsDeleted))
	rt.stats.GCRowsDeleted.Add(int64(st.RowsDeleted))
	rt.stats.GCDisconnected.Add(int64(st.RowsDisconnected))
	return st, nil
}

func (rt *Runtime) gcPhaseStamp(now, tUs int64, st *GCStats) (map[string]bool, error) {
	items, err := rt.store.Scan(rt.intentTable, dynamo.QueryOpts{
		Filter: dynamo.Eq(dynamo.A(attrDone), dynamo.Bool(true)),
	})
	if err != nil {
		return nil, err
	}
	recyclable := make(map[string]bool)
	for _, it := range items {
		if rt.cfg.GCPageLimit > 0 && len(recyclable) >= rt.cfg.GCPageLimit {
			// Appendix A's bounding: each run reclaims a bounded batch,
			// so one pass's run time stays bounded, and the next run
			// continues.
			break
		}
		rec := decodeIntent(it)
		switch {
		case !rec.hasFinish:
			// First sighting after completion: stamp. Conditional so a
			// concurrent GC's earlier stamp is never overwritten forward.
			err := rt.store.Update(rt.intentTable, dynamo.HK(dynamo.S(rec.id)), doneUnstamped,
				dynamo.Set(dynamo.A(attrFinishTime), dynamo.NInt(now)))
			if err != nil && !errors.Is(err, dynamo.ErrConditionFailed) {
				return nil, err
			}
		case now-rec.finishTime > tUs:
			recyclable[rec.id] = true
			st.Recycled++
		}
	}
	return recyclable, nil
}

// deletePartition removes every row of one hash partition, returning the
// count.
func (rt *Runtime) deletePartition(table, hash string) (int, error) {
	items, err := rt.store.Query(table, dynamo.S(hash), dynamo.QueryOpts{})
	if err != nil {
		return 0, err
	}
	sortAttr := attrStep
	if table == rt.txCallees {
		sortAttr = attrCallee
	}
	if table == rt.txLocks {
		sortAttr = attrTableKey
	}
	for _, it := range items {
		key := dynamo.HSK(dynamo.S(hash), it[sortAttr])
		if err := rt.store.Delete(table, key, nil); err != nil {
			return 0, err
		}
	}
	return len(items), nil
}

// gcDAALTable runs phases 3–5 on one DAAL table. settled is non-nil for
// shadow tables: the map of transaction id → recyclable settle claimant,
// enabling whole-chain (head and tail included) collection.
func (rt *Runtime) gcDAALTable(table string, recyclable map[string]bool, settled map[string]bool, now, tUs int64, st *GCStats) error {
	byKey, err := scanDAAL(rt.store, table)
	if err != nil {
		return err
	}
	for _, key := range sortedKeys(byKey) {
		if err := rt.gcChain(table, key, byKey[key], recyclable, settled, now, tUs, st); err != nil {
			return err
		}
	}
	return nil
}

// sortedIDs returns a set's members in sorted order, for deterministic
// operation sequences (replay-from-seed simulation).
func sortedIDs(set map[string]bool) []string { return sortedKeys(set) }

// sortedKeys returns a map's keys in sorted order — every GC loop iterates
// maps through it so a pass issues an identical operation sequence on every
// run.
func sortedKeys[V any](m map[string]V) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (rt *Runtime) gcChain(table, key string, rows map[string]daalRow, recyclable, settled map[string]bool, now, tUs int64, st *GCStats) error {
	// Row iteration is sorted throughout this pass — see phase 2.
	rowIDs := sortedKeys(rows)
	// Phase 3: persist marks for recyclable log entries, in every row
	// (reachable or not).
	for _, id := range rowIDs {
		row := rows[id]
		var marks []dynamo.Update
		for logKey := range row.recent.Entries() {
			intent, _ := splitLogKey(logKey)
			if _, marked := row.recycled.MapGet(logKey); recyclable[intent] && !marked {
				marks = append(marks, dynamo.Set(dynamo.AK(attrRecycled, logKey), dynamo.Bool(true)))
			}
		}
		if len(marks) == 0 {
			continue
		}
		if err := rt.store.Update(table, rowKeyOf(key, id), nil, marks...); err != nil {
			return err
		}
		// Every entry of a recyclable intent is marked now; the rows' next
		// phases read the marks from here, not from the store.
		marked := make([]dynamo.Field, 0, row.recent.MapLen())
		for logKey := range row.recent.Entries() {
			intent, _ := splitLogKey(logKey)
			if _, was := row.recycled.MapGet(logKey); was || recyclable[intent] {
				marked = append(marked, dynamo.F(logKey, dynamo.Bool(true)))
			}
		}
		row.recycled = dynamo.Fields(marked...)
		rows[id] = row
		st.RowsMarked++
	}

	// Compute the reachable chain.
	chain := chainOrder(rows)

	// Shadow whole-chain collection: if the owning transaction's settle
	// claimant has been recycled and every entry of every row is recycled,
	// the chain (head and tail included) is dead — no straggler can need it.
	if settled != nil {
		txnID := key
		if i := strings.Index(key, "|"); i >= 0 {
			txnID = key[:i]
		}
		if settled[txnID] && allRowsRecycled(rows) {
			// The head, first in rowIDs, is deleted last: a pass that dies
			// midway leaves a chain the next pass finishes, never rows
			// without a head, which a head-first write would take for an
			// absent item.
			for _, id := range append(rowIDs[1:], rowIDs[0]) {
				if err := rt.store.Delete(table, rowKeyOf(key, id), nil); err != nil {
					return err
				}
				st.RowsDeleted++
			}
			return nil
		}
		// A chain that outlives this pass needs its settle marker to be found
		// dead by a later one: hold the transaction's registries back with it.
		delete(settled, txnID)
	}

	// Phase 4: disconnect fully recycled middle rows (never the head, never
	// the tail).
	if len(chain) > 2 {
		lastKept := chain[0]
		for i := 1; i < len(chain)-1; i++ {
			row := rows[chain[i]]
			if !fullyRecycled(row) {
				lastKept = chain[i]
				continue
			}
			err := rt.store.Update(table, rowKeyOf(key, lastKept),
				dynamo.Eq(dynamo.A(attrNextRow), dynamo.S(row.rowID)),
				dynamo.Set(dynamo.A(attrNextRow), dynamo.S(row.next)))
			if err != nil {
				if errors.Is(err, dynamo.ErrConditionFailed) {
					// A concurrent GC rewired this link; let the next pass
					// handle it (§5's neighbouring-disconnect case).
					lastKept = chain[i]
					continue
				}
				return err
			}
			// Stamp the dangling time *after* a successful disconnect so
			// the T countdown starts at actual disconnection.
			if err := rt.store.Update(table, rowKeyOf(key, row.rowID), nil,
				dynamo.Set(dynamo.A(attrDangleTime), dynamo.NInt(now))); err != nil {
				return err
			}
			st.RowsDisconnected++
		}
	}

	// Recovery stamping: unreachable rows without a dangle stamp (a GC that
	// crashed between disconnect and stamp, §5) get one now.
	reachable := make(map[string]bool, len(chain))
	for _, id := range chain {
		reachable[id] = true
	}
	for _, id := range rowIDs {
		row := rows[id]
		if reachable[id] || row.dangle != 0 {
			continue
		}
		if err := rt.store.Update(table, rowKeyOf(key, id), dangleAbsent,
			dynamo.Set(dynamo.A(attrDangleTime), dynamo.NInt(now))); err != nil &&
			!errors.Is(err, dynamo.ErrConditionFailed) {
			return err
		}
	}

	// Phase 5: delete rows that have dangled for T and are (still) not
	// reachable. The reachability is this pass's scan, which can be stale:
	// an appended row whose link lands after the scan is reachable by the
	// time of the delete. The delete is therefore guarded on the LogSize
	// the scan saw, so it never takes a row a write reached since (a
	// disconnected row is full and never changes); the write walk puts back
	// a linked row deleted before any write reached it (repairSuccessor).
	for _, id := range rowIDs {
		row := rows[id]
		if reachable[id] || row.dangle == 0 || now-row.dangle <= tUs {
			continue
		}
		err := rt.store.Delete(table, rowKeyOf(key, id), dynamo.Eq(dynamo.A(attrLogSize), dynamo.N(float64(row.logSize))))
		if errors.Is(err, dynamo.ErrConditionFailed) {
			continue
		}
		if err != nil {
			return err
		}
		st.RowsDeleted++
	}
	return nil
}

func rowKeyOf(key, rowID string) dynamo.Key {
	return dynamo.HSK(dynamo.S(key), dynamo.S(rowID))
}

func chainOrder(rows map[string]daalRow) []string {
	var order []string
	seen := make(map[string]bool)
	for id := headRowID; id != "" && !seen[id]; {
		r, ok := rows[id]
		if !ok {
			break
		}
		order = append(order, id)
		seen[id] = true
		id = r.next
	}
	return order
}

// fullyRecycled reports whether every entry of r's log is marked; an empty
// log needs no retention.
func fullyRecycled(r daalRow) bool {
	for logKey := range r.recent.Entries() {
		if _, marked := r.recycled.MapGet(logKey); !marked {
			return false
		}
	}
	return true
}

func allRowsRecycled(rows map[string]daalRow) bool {
	for _, r := range rows {
		if !fullyRecycled(r) {
			return false
		}
	}
	return true
}

// settledClaimants scans the transaction registries for settle markers
// whose claimant instance is itself done and finish-stamped older than T —
// the condition under which a transaction's shadow state and registries can
// never be needed again. now is the pass's one clock reading: judged on a
// later one, a claimant stamped by this very pass can look settled before
// any of its log entries is recyclable.
func (rt *Runtime) settledClaimants(now, tUs int64) (map[string]bool, error) {
	if rt.mode == ModeBaseline {
		return nil, nil
	}
	items, err := rt.store.Scan(rt.txCallees, dynamo.QueryOpts{
		Filter: dynamo.Eq(dynamo.A(attrCallee), dynamo.S(settleMarker)),
	})
	if err != nil {
		return nil, err
	}
	settled := make(map[string]bool)
	for _, it := range items {
		claimant := it[attrInstanceID].Str()
		rec, ok, err := rt.store.Get(rt.intentTable, dynamo.HK(dynamo.S(claimant)))
		if err != nil {
			return nil, err
		}
		if !ok {
			// Claimant intent already collected: it was recyclable.
			settled[it[attrTxnID].Str()] = true
			continue
		}
		r := decodeIntent(rec)
		if r.done && r.hasFinish && now-r.finishTime > tUs {
			settled[it[attrTxnID].Str()] = true
		}
	}
	return settled, nil
}

// gcTxnRegistries deletes the txCallees/txLocks partitions of settled
// transactions.
func (rt *Runtime) gcTxnRegistries(_ map[string]bool, settled map[string]bool, st *GCStats) error {
	for _, txnID := range sortedIDs(settled) {
		for _, tbl := range []string{rt.txCallees, rt.txLocks} {
			n, err := rt.deletePartition(tbl, txnID)
			if err != nil {
				return err
			}
			st.LogRowsDeleted += n
		}
	}
	return nil
}

// gcCrossTable prunes the cross-table layout: write-log rows of recyclable
// intents, and shadow data rows of settled transactions.
func (rt *Runtime) gcCrossTable(logical string, recyclable, settled map[string]bool, st *GCStats) error {
	for _, id := range sortedIDs(recyclable) {
		for _, tbl := range []string{rt.writeLogTable(logical), rt.shadowWriteLogTable(logical)} {
			n, err := rt.deletePartition(tbl, id)
			if err != nil {
				return err
			}
			st.LogRowsDeleted += n
		}
	}
	// Shadow data rows: key is "txnID|key".
	items, err := rt.store.Scan(rt.shadowTable(logical), dynamo.QueryOpts{
		Projection: []dynamo.Path{dynamo.A(attrKey)},
	})
	if err != nil {
		return err
	}
	for _, it := range items {
		key := it[attrKey].Str()
		txnID := key
		if i := strings.Index(key, "|"); i >= 0 {
			txnID = key[:i]
		}
		if settled[txnID] {
			if err := rt.store.Delete(rt.shadowTable(logical), dynamo.HK(dynamo.S(key)), nil); err != nil {
				return err
			}
			st.RowsDeleted++
		}
	}
	return nil
}
