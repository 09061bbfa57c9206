package core

import (
	"fmt"
	"strings"

	"repro/internal/dynamo"
)

// Fsck validates the structural invariants of an SSF's durable state — the
// properties the §4–§6 protocols maintain. It is safe to run against a
// quiescent runtime (no instances in flight); tests run it after chaos
// workloads, and operators can run it as a consistency audit. A nil error
// means every check passed; otherwise the error enumerates every violation.
//
// Checks:
//   - every intent row is well-formed (arguments and start time present — a
//     half-formed row is the signature of a zombie's unguarded completion
//     upsert),
//   - every DAAL chain is acyclic from the head and ends at a tail without
//     NextRow,
//   - every non-tail chained row is full (rows only gain successors when
//     full) and immutable-by-capacity,
//   - LogSize equals the RecentWrites entry count in every row,
//   - Recycled marks only reference present log entries,
//   - completed intents referenced by lock owners do not exist (no lock is
//     held by a done intent — locks-with-intent release before done),
//   - read/invoke-log rows reference intents that still exist OR belong to
//     instances whose intent was collected (in which case the GC should
//     have removed them — flagged as leaks; a posted promise result is an
//     attribute of its invoke-log row, so this covers it),
//   - transaction registries reference settle markers consistently.
func Fsck(rt *Runtime) error {
	if rt.mode == ModeBaseline {
		return nil // nothing to check: no protocol state
	}
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Intent ids still alive, for cross-referencing.
	intents, err := rt.store.Scan(rt.intentTable, dynamo.QueryOpts{})
	if err != nil {
		return err
	}
	live := make(map[string]bool, len(intents))
	done := make(map[string]bool)
	for _, it := range intents {
		rec := decodeIntent(it)
		live[rec.id] = true
		if rec.done {
			done[rec.id] = true
		}
		// Well-formedness: every intent row carries its arguments and start
		// time from registration. A row missing them is the signature of a
		// zombie resurrection — a straggler's unguarded completion upserting
		// after the real row was collected (the bug markIntentDone's existence
		// guard closes).
		if _, ok := it[attrArgs]; !ok {
			report("intent %s: half-formed row (no %s) — zombie resurrection?", rec.id, attrArgs)
		}
		if _, ok := it[attrStartTime]; !ok {
			report("intent %s: half-formed row (no %s) — zombie resurrection?", rec.id, attrStartTime)
		}
	}

	if rt.mode == ModeBeldi {
		for _, logical := range rt.dataTables() {
			for _, table := range []string{rt.dataTable(logical), rt.shadowTable(logical)} {
				if err := fsckDAALTable(rt, table, done, report); err != nil {
					return err
				}
			}
		}
	}

	// Log tables reference either live intents or are leaks (the GC removes
	// them together with the intent).
	for _, tbl := range []string{rt.readLog, rt.invokeLog} {
		rows, err := rt.store.Scan(tbl, dynamo.QueryOpts{Projection: []dynamo.Path{dynamo.A(attrID)}})
		if err != nil {
			return err
		}
		for _, it := range rows {
			id := it[attrID].Str()
			if !live[id] {
				report("%s: log row for collected intent %s leaked", tbl, id)
			}
		}
	}

	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("core: fsck %s: %d problems:\n  %s",
		rt.fn, len(problems), strings.Join(problems, "\n  "))
}

func fsckDAALTable(rt *Runtime, table string, doneIntents map[string]bool, report func(string, ...any)) error {
	items, err := rt.store.Scan(table, dynamo.QueryOpts{})
	if err != nil {
		return err
	}
	byKey := make(map[string]map[string]daalRow)
	for _, it := range items {
		r := decodeDAALRow(it)
		if byKey[r.key] == nil {
			byKey[r.key] = make(map[string]daalRow)
		}
		byKey[r.key][r.rowID] = r
	}
	for key, rows := range byKey {
		// Per-row invariants.
		for id, r := range rows {
			if r.logSize != r.recent.MapLen() {
				report("%s/%s row %s: LogSize %d != %d entries", table, key, id, r.logSize, r.recent.MapLen())
			}
			if r.logSize > rt.cfg.RowCap {
				report("%s/%s row %s: LogSize %d exceeds cap %d", table, key, id, r.logSize, rt.cfg.RowCap)
			}
			for mark := range r.recycled.Entries() {
				if _, ok := r.recent.MapGet(mark); !ok {
					report("%s/%s row %s: recycled mark %s has no log entry", table, key, id, mark)
				}
			}
		}
		// Chain invariants.
		chain := chainOrder(rows)
		seen := make(map[string]bool)
		for _, id := range chain {
			if seen[id] {
				report("%s/%s: cycle through row %s", table, key, id)
				break
			}
			seen[id] = true
		}
		for i, id := range chain {
			if i == len(chain)-1 {
				// The chain's last element either has no successor (a true
				// tail) or points at a row missing from the table — legal
				// only transiently mid-append, damage at quiescence.
				if next := rows[id].next; next != "" {
					if _, ok := rows[next]; !ok {
						report("%s/%s: tail %s points at missing row %s", table, key, id, next)
					}
				}
				continue
			}
			if rows[id].logSize != rt.cfg.RowCap {
				report("%s/%s: non-tail row %s not full (%d/%d)", table, key, id, rows[id].logSize, rt.cfg.RowCap)
			}
		}
		// A lock held by a completed intent means release was lost. Only the
		// tail's lock is authoritative: appendRow copies a then-held lock
		// onto the new row and the filled predecessor is immutable from that
		// point, so interior rows legitimately retain stale owners.
		if len(chain) > 0 {
			if lock := rows[chain[len(chain)-1]].lock; !lock.IsNull() {
				ownerID, _ := lock.MapGet(attrID)
				owner := ownerID.Str()
				// Transaction locks are owned by txn ids ("instance#tx...");
				// resolve to the owning instance.
				if i := strings.Index(owner, "#tx"); i >= 0 {
					owner = owner[:i]
				}
				if doneIntents[owner] {
					report("%s/%s: tail %s lock held by completed intent %s", table, key, chain[len(chain)-1], owner)
				}
			}
		}
	}
	return nil
}
