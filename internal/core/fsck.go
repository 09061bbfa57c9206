package core

import (
	"fmt"
	"slices"
	"strings"
)

// Fsck validates the structural invariants of an SSF's durable state — the
// properties the §4–§6 protocols maintain. It is safe to run against a
// quiescent runtime (no instances in flight); tests run it after chaos
// workloads, and operators can run it as a consistency audit. A nil error
// means every check passed; otherwise the error enumerates every violation.
// It reads the store alone (see inspect); of the runtime it needs only the
// function's name and RowCap.
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
//     attribute of its invoke-log row, so this covers it).
func Fsck(rt *Runtime) error {
	ds, err := inspect(rt.store, rt.fn)
	if err != nil {
		return err
	}
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	done := make(map[string]bool, len(ds.intents)) // every intent id → done
	for _, in := range ds.intents {
		done[in.id] = in.done
		// A row missing its arguments or start time is the signature of a
		// zombie resurrection — a straggler's unguarded completion upserting
		// after the real row was collected (the bug markIntentDone's
		// existence guard closes).
		if !in.hasArgs {
			report("intent %s: half-formed row (no %s) — zombie resurrection?", in.id, attrArgs)
		}
		if !in.hasStart {
			report("intent %s: half-formed row (no %s) — zombie resurrection?", in.id, attrStartTime)
		}
	}
	for _, table := range sortedKeys(ds.daal) {
		for _, key := range sortedKeys(ds.daal[table]) {
			fsckChain(table, key, ds.daal[table][key], rt.cfg.RowCap, done, report)
		}
	}
	// Log rows belong to live intents; the GC removes them with the intent.
	for _, table := range []string{rt.fn + readLogSuffix, rt.fn + invokeLogSuffix} {
		for _, r := range ds.logs[table] {
			if _, live := done[r.owner]; !live {
				report("%s: log row for collected intent %s leaked", table, r.owner)
			}
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("core: fsck %s: %d problems:\n  %s",
		rt.fn, len(problems), strings.Join(problems, "\n  "))
}

func fsckChain(table, key string, rows map[string]daalRow, rowCap int, done map[string]bool, report func(string, ...any)) {
	for _, id := range sortedKeys(rows) {
		r := rows[id]
		if r.logSize != r.recent.MapLen() {
			report("%s/%s row %s: LogSize %d != %d entries", table, key, id, r.logSize, r.recent.MapLen())
		}
		if r.logSize > rowCap {
			report("%s/%s row %s: LogSize %d exceeds cap %d", table, key, id, r.logSize, rowCap)
		}
		for mark := range r.recycled.Entries() {
			if _, ok := r.recent.MapGet(mark); !ok {
				report("%s/%s row %s: recycled mark %s has no log entry", table, key, id, mark)
			}
		}
	}
	chain := chainOrder(rows)
	if len(chain) == 0 {
		return
	}
	tailID := chain[len(chain)-1]
	for _, id := range chain[:len(chain)-1] {
		if rows[id].logSize != rowCap {
			report("%s/%s: non-tail row %s not full (%d/%d)", table, key, id, rows[id].logSize, rowCap)
		}
	}
	// chainOrder stops at a row it has seen or cannot find: a tail with a
	// successor points back into the chain, or at a row missing from the
	// table (legal only transiently mid-append, damage at quiescence).
	if next := rows[tailID].next; slices.Contains(chain, next) {
		report("%s/%s: cycle through row %s", table, key, next)
	} else if next != "" {
		report("%s/%s: tail %s points at missing row %s", table, key, tailID, next)
	}
	// A lock held by a completed intent means release was lost. Only the
	// tail's lock is authoritative: appendRow copies a then-held lock onto
	// the new row and the filled predecessor is immutable from that point,
	// so interior rows legitimately retain stale owners.
	if lock := rows[tailID].lock; !lock.IsNull() {
		// Transaction locks are owned by txn ids ("instance#tx..."); resolve
		// to the owning instance.
		ownerID, _ := lock.MapGet(attrID)
		owner, _, _ := strings.Cut(ownerID.Str(), "#tx")
		if done[owner] {
			report("%s/%s: tail %s lock held by completed intent %s", table, key, tailID, owner)
		}
	}
}
