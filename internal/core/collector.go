package core

import (
	"errors"
	"slices"
	"strings"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// The intent collector (§3.3): a pass, run on a timer, that finds this SSF's
// unfinished intents and re-executes them with their original instance id
// and arguments. Restarting a still-running instance is safe — every step is
// at-most-once — so the collector needs no failure detector; it only
// rate-limits restarts (ICMinAge) and pages its scan (ICPageLimit) to bound
// its own execution time (Appendix A).
//
// The core runs no timer of its own. A deployment's collection loop
// (beldi.Deployment.StartCollectors) runs this pass every ICMinAge, or
// sooner when a pending row comes due, and the garbage collector every T,
// function by function; a cluster worker's collection is that same loop.
// Only the simulator drives the passes from pumps of its own.
//
// In a clustered deployment (internal/cluster) a CollectorGate scopes each
// worker's pass to the intent partitions its lease covers and fences every
// claim, so the one-logical-collector model becomes N cooperating shards
// with store-enforced ownership (see gate.go).

// RunIntentCollector performs one collection pass, returning how many
// instances it restarted.
func (rt *Runtime) RunIntentCollector() (int, error) {
	n, _, err := rt.CollectIntents()
	return n, err
}

// CollectIntents performs one collection pass. It fires every schedule
// that is due (fireSchedule: a first launch, not a restart) and restarts
// every other intent last launched ICMinAge ago, returning how many it
// restarted and nextDue: the earliest due time, in µs on the runtime's
// clock, of a pending row the pass left because it is not due (firstDue)
// or of the next occurrence of a schedule it fired; 0 when it saw neither.
// A row of another worker's partition is skipped and never reported.
func (rt *Runtime) CollectIntents() (restarted int, nextDue int64, _ error) {
	items, err := rt.store.QueryIndex(rt.intentTable, indexPending, dynamo.S(pendingMarker),
		dynamo.QueryOpts{Limit: rt.cfg.ICPageLimit})
	if err != nil {
		return 0, 0, err
	}
	now := rt.now()
	gate := rt.collectorGate()
	for i, it := range items {
		rec := decodeIntent(it)
		if rt.launchedRecently(rec.lastLaunch, now) {
			// Give it time (first IC optimization). The index is sorted by
			// LastLaunch, so no later row is due either.
			return restarted, earliest(nextDue, rt.firstDue(items[i:], gate, now)), nil
		}
		var fence []dynamo.TxOp
		if gate != nil {
			if !gate.OwnsIntent(rec.id) {
				continue // another worker's partition; its collector owns this
			}
			fence = gate.ClaimFence(rec.id)
		}
		if _, ok := it[attrSchedule]; ok {
			due, err := rt.fireSchedule(it, rec, now, fence)
			if err != nil {
				return restarted, 0, err
			}
			nextDue = earliest(nextDue, due)
			continue
		}
		claim := rt.claimOp(rec.id, rec.lastLaunch)
		var dead bool
		claim.Updates, dead = rt.launchClaim(rec, now)
		claimed, err := rt.touchLaunchFenced(claim, fence)
		if err != nil {
			return restarted, 0, err
		}
		if !claimed {
			continue // a concurrent collector (or the done-marking) won
		}
		if dead {
			rt.stats.IntentsDead.Add(1)
			continue
		}
		ev := rec.args
		ev.InstanceID = rec.id
		if err := rt.plat.InvokeAsyncInternal(rt.fn, ev.encode()); err != nil {
			return restarted, 0, err
		}
		rt.stats.Restarts.Add(1)
		restarted++
	}
	return restarted, nextDue, nil
}

// dueBatches bounds how often failed attempts bring a collection pass
// forward: a pass at now reports an attempt's due time (LastLaunch +
// ICMinAge) as no sooner than now + ICMinAge/dueBatches, so the attempts
// that come due within that span share one pass. A loop that arms for the
// reported time then runs at most about dueBatches passes per ICMinAge for
// attempts, however many are pending, and relaunches each at most
// ICMinAge/dueBatches late. A schedule's due time is reported exactly.
const dueBatches = 4

// firstDue is the due time to report for items, a tail of the pending index
// that holds no due row: the earliest among the rows gate owns (every row,
// when gate is nil), an attempt's put off as dueBatches says. 0 when gate
// owns none.
func (rt *Runtime) firstDue(items []dynamo.Item, gate CollectorGate, now int64) int64 {
	age := rt.cfg.ICMinAge.Microseconds()
	var due int64
	for _, it := range items {
		at := it[attrLastLaunch].Int() + age
		if due != 0 && at >= due {
			break // sorted by LastLaunch: no later row is due sooner
		}
		if gate != nil && !gate.OwnsIntent(it[attrInstanceID].Str()) {
			continue
		}
		if _, ok := it[attrSchedule]; !ok {
			at = max(at, now+age/dueBatches)
		}
		due = earliest(due, at)
	}
	return due
}

// earliest is the earlier of two due times, where 0 is none.
func earliest(a, b int64) int64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// launchedRecently reports whether a launch at at is younger than ICMinAge
// at now: a collector pass leaves such an intent alone, so no relaunch of it
// can have been claimed (an async first run relies on it, asyncRunIntent).
func (rt *Runtime) launchedRecently(at, now int64) bool {
	return now-at < rt.cfg.ICMinAge.Microseconds()
}

// launchClaim is the update a collector's claim of rec makes at now: the
// relaunch's new LastLaunch and, for an async intent under a launch budget,
// its launch count. The in-process fire was launch 1, so an intent with no
// count has had one. A claim that would go past the budget marks the intent
// dead instead — out of the pending index, with a Dead stamp — in the same
// single update, and launches nothing.
func (rt *Runtime) launchClaim(rec *intentRecord, now int64) (ups []dynamo.Update, dead bool) {
	relaunch := dynamo.Set(dynamo.A(attrLastLaunch), dynamo.NInt(now))
	budget := rt.launchBudget.Load()
	if !rec.async || budget == 0 {
		return []dynamo.Update{relaunch}, false
	}
	launches := max(rec.launches, 1)
	if launches >= budget {
		return []dynamo.Update{dynamo.Remove(dynamo.A(attrPending)), dynamo.Set(dynamo.A(attrDead), dynamo.NInt(now))}, true
	}
	return []dynamo.Update{relaunch, dynamo.Set(dynamo.A(attrLaunches), dynamo.NInt(launches+1))}, false
}

// deadIntents scans for the intents a claim marked dead, in id order.
func (rt *Runtime) deadIntents() ([]*intentRecord, error) {
	items, err := rt.store.Scan(rt.intentTable, dynamo.QueryOpts{Filter: deadUndone})
	if err != nil {
		return nil, err
	}
	recs := make([]*intentRecord, len(items))
	for i, it := range items {
		recs[i] = decodeIntent(it)
	}
	slices.SortFunc(recs, func(a, b *intentRecord) int { return strings.Compare(a.id, b.id) })
	return recs, nil
}

// DeadIntents lists the ids of this SSF's dead intents: async intents whose
// launch budget ran out (SetLaunchBudget), in id order.
func (rt *Runtime) DeadIntents() ([]string, error) {
	recs, err := rt.deadIntents()
	ids := make([]string, len(recs))
	for i, rec := range recs {
		ids[i] = rec.id
	}
	return ids, err
}

// Redrive returns every dead intent to the pending index with a fresh launch
// budget and fires it in-process, as asyncInvoke's step 2 does; it returns
// how many it redrove.
func (rt *Runtime) Redrive() (int, error) {
	recs, err := rt.deadIntents()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rec := range recs {
		err := rt.store.Update(rt.intentTable, dynamo.HK(dynamo.S(rec.id)), deadUndone,
			dynamo.Remove(dynamo.A(attrDead)),
			dynamo.Remove(dynamo.A(attrLaunches)),
			dynamo.Set(dynamo.A(attrPending), dynamo.S(pendingMarker)),
			dynamo.Set(dynamo.A(attrLastLaunch), dynamo.NInt(rt.now())))
		if errors.Is(err, dynamo.ErrConditionFailed) {
			continue // another Redrive took it, or a late execution completed it
		}
		if err != nil {
			return n, err
		}
		ev := rec.args
		ev.InstanceID = rec.id
		if err := rt.plat.InvokeAsyncInternal(rt.fn, ev.encode()); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// PendingIntents counts fn's unfinished intents on store: the rows of the
// sparse index a collection pass pages through, schedule registrations
// included. It reads the store, not a runtime, so a harness can ask
// about a deployment that is crashed or gone.
func PendingIntents(store storage.Backend, fn string) (int, error) {
	items, err := store.QueryIndex(fn+intentSuffix, indexPending, dynamo.S(pendingMarker), dynamo.QueryOpts{})
	return len(items), err
}

// DueIntents counts this SSF's unfinished intents but the schedule
// registrations that are not due yet: what a collection pass has to finish
// now. A periodic schedule's registration is always pending.
func (rt *Runtime) DueIntents() (int, error) {
	due := dynamo.Or(dynamo.NotExists(dynamo.A(attrSchedule)),
		dynamo.Le(dynamo.A(attrLastLaunch), dynamo.NInt(rt.now()-rt.cfg.ICMinAge.Microseconds())))
	items, err := rt.store.QueryIndex(rt.intentTable, indexPending, dynamo.S(pendingMarker),
		dynamo.QueryOpts{Filter: due, Projection: []dynamo.Path{dynamo.A(attrInstanceID)}})
	return len(items), err
}
