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
// (beldi.Deployment.StartCollectors) runs this pass every ICMinAge and the
// garbage collector every T, function by function; a cluster worker and the
// simulator drive both from their own loops.
//
// In a clustered deployment (internal/cluster) a CollectorGate scopes each
// worker's pass to the intent partitions its lease covers and fences every
// claim, so the one-logical-collector model becomes N cooperating shards
// with store-enforced ownership (see gate.go).

// RunIntentCollector performs one collection pass, returning how many
// instances it restarted.
func (rt *Runtime) RunIntentCollector() (int, error) {
	items, err := rt.store.QueryIndex(rt.intentTable, indexPending, dynamo.S(pendingMarker),
		dynamo.QueryOpts{Limit: rt.cfg.ICPageLimit})
	if err != nil {
		return 0, err
	}
	now := rt.now()
	minAge := rt.cfg.ICMinAge.Microseconds()
	gate := rt.collectorGate()
	restarted := 0
	for _, it := range items {
		rec := decodeIntent(it)
		if now-rec.lastLaunch < minAge {
			continue // launched recently; give it time (first IC optimization)
		}
		var fence []dynamo.TxOp
		if gate != nil {
			if !gate.OwnsIntent(rec.id) {
				continue // another worker's partition; its collector owns this
			}
			fence = gate.ClaimFence(rec.id)
		}
		ups, dead := rt.launchClaim(rec, now)
		claimed, err := rt.touchLaunchFenced(rec.id, rec.lastLaunch, fence, ups)
		if err != nil {
			return restarted, err
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
			return restarted, err
		}
		rt.stats.Restarts.Add(1)
		restarted++
	}
	return restarted, nil
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
// sparse index a collection pass pages through. It reads the store, not a
// runtime, so a harness can ask about a deployment that is crashed or gone.
func PendingIntents(store storage.Backend, fn string) (int, error) {
	items, err := store.QueryIndex(fn+intentSuffix, indexPending, dynamo.S(pendingMarker), dynamo.QueryOpts{})
	return len(items), err
}
