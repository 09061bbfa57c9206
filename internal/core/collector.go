package core

import (
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
)

// The intent collector (§3.3): a timer-triggered serverless function that
// finds this SSF's unfinished intents and re-executes them with their
// original instance id and arguments. Restarting a still-running instance
// is safe — every step is at-most-once — so the collector needs no failure
// detector; it only rate-limits restarts (ICMinAge) and pages its scan
// (ICPageLimit) to bound its own execution time (Appendix A).
//
// In a clustered deployment (internal/cluster) a CollectorGate scopes each
// worker's pass to the intent partitions its lease covers and fences every
// claim, so the one-logical-collector model becomes N cooperating shards
// with store-enforced ownership (see gate.go).

// icHandler is the collector's body, registered as "<fn>.ic".
func (rt *Runtime) icHandler(inv *platform.Invocation, _ Value) (Value, error) {
	n, err := rt.RunIntentCollector()
	if err != nil {
		return dynamo.Null, err
	}
	return dynamo.NInt(int64(n)), nil
}

// RunIntentCollector performs one collection pass, returning how many
// instances it restarted. Exposed for tests and for deployments that drive
// collection themselves.
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
		claimed, err := rt.touchLaunchFenced(rec.id, rec.lastLaunch, now, fence)
		if err != nil {
			return restarted, err
		}
		if !claimed {
			continue // a concurrent collector (or the done-marking) won
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

// PendingIntents counts fn's unfinished intents on store: the rows of the
// sparse index a collection pass pages through. It reads the store, not a
// runtime, so a harness can ask about a deployment that is crashed or gone.
func PendingIntents(store storage.Backend, fn string) (int, error) {
	items, err := store.QueryIndex(fn+".intent", indexPending, dynamo.S(pendingMarker), dynamo.QueryOpts{})
	return len(items), err
}

// StartCollectors begins the timer loops that trigger the intent collector
// and garbage collector through the platform (the paper triggers both every
// minute, AWS's finest timer resolution). Stop() ends them.
func (rt *Runtime) StartCollectors() {
	if rt.cfg.ICInterval > 0 {
		go rt.timerLoop(rt.cfg.ICInterval, rt.fn+".ic")
	}
	if rt.cfg.GCInterval > 0 {
		go rt.timerLoop(rt.cfg.GCInterval, rt.fn+".gc")
	}
}

func (rt *Runtime) timerLoop(period time.Duration, fn string) {
	for {
		select {
		case <-rt.stopCh:
			return
		case <-rt.clk.After(period):
		}
		// Collector failures are retried on the next tick; both collectors
		// are at-least-once by design (§5).
		rt.plat.InvokeInternal(fn, dynamo.Null) //nolint:errcheck
	}
}
