package core

import (
	"errors"
	"slices"

	"repro/internal/dynamo"
)

// This file is the core's seam to the cluster runtime (internal/cluster):
// when several worker processes share one storage.Backend, each worker's
// intent collector must restart only the slice of the intent space the
// worker currently owns, and every restart claim must be fenced so a worker
// whose lease was revoked (a "zombie": paused, partitioned, or just slow to
// notice it is dead) cannot claim work that has been handed to a survivor.
//
// The seam is deliberately tiny: a gate scopes the collector's scan and
// supplies condition-check ops that ride atomically with the claim write.
// With no gate installed, the collector behaves exactly as in the paper —
// one logical collector over the whole intent table, claims raced only
// through the LastLaunch compare-and-set.

// CollectorGate scopes a Runtime's intent collector to the intents its host
// worker owns and fences every claim against the host's authority record.
// Implementations must be safe for concurrent use; internal/cluster's Worker
// is the canonical implementation (partition ownership from an epoch-fenced
// lease table).
type CollectorGate interface {
	// OwnsIntent reports whether this collector should attempt instance id
	// at all. Returning false skips the intent: some other worker's
	// collector owns it.
	OwnsIntent(id string) bool
	// ClaimFence returns condition-check ops attached atomically to the
	// claim of instance id (dynamo.TxOp with Check set). If any check fails
	// at commit time the claim is rejected as fenced — the store-side
	// guarantee that a zombie's late claim cannot land. nil means the claim
	// needs no fence beyond the LastLaunch compare-and-set.
	ClaimFence(id string) []dynamo.TxOp
}

// SetCollectorGate installs (or clears, with nil) the collector gate. The
// cluster runtime calls it when a worker attaches the runtime; standalone
// deployments never need it.
func (rt *Runtime) SetCollectorGate(g CollectorGate) {
	rt.gateMu.Lock()
	rt.gate = g
	rt.gateMu.Unlock()
}

// collectorGate returns the currently installed gate, or nil.
func (rt *Runtime) collectorGate() CollectorGate {
	rt.gateMu.RLock()
	defer rt.gateMu.RUnlock()
	return rt.gate
}

// claimOp is a collector's claim of intent id as an op without its action:
// guarded on the LastLaunch it observed and on the intent not being done,
// so of two claims of one launch only the first commits.
func (rt *Runtime) claimOp(id string, observed int64) dynamo.TxOp {
	return dynamo.TxOp{
		Table: rt.intentTable,
		Key:   dynamo.HK(dynamo.S(id)),
		Cond: dynamo.And(
			dynamo.Eq(dynamo.A(attrLastLaunch), dynamo.NInt(observed)),
			dynamo.Eq(dynamo.A(attrDone), dynamo.Bool(false)),
		),
	}
}

// touchLaunchFenced commits a collector's claim (claimOp with its updates:
// a relaunch's or a dead mark's, see launchClaim; or a schedule's fire, see
// fireSchedule). Alone it is one conditional update. With a fence, or with
// ops that commit with it (a fired occurrence's put), it is one transaction
// of the fence, the claim and those ops, so the claim lands only while the
// claimant still holds its authority. A claim rejected by a fence check
// (rather than by the LastLaunch race) is counted in Stats.FencedClaims —
// the observable signature of a zombie's write being refused.
func (rt *Runtime) touchLaunchFenced(claim dynamo.TxOp, fence []dynamo.TxOp, with ...dynamo.TxOp) (bool, error) {
	var err error
	if len(fence)+len(with) == 0 {
		err = rt.store.Update(claim.Table, claim.Key, claim.Cond, claim.Updates...)
	} else {
		err = rt.store.TransactWrite(append(append(slices.Clip(fence), claim), with...))
	}
	if err == nil {
		return true, nil
	}
	var tc *dynamo.TxCanceledError
	if errors.As(err, &tc) {
		// Distinguish a fence rejection (zombie refused) from an ordinary
		// claim race (another collector advanced LastLaunch first): the
		// fence ops come first in the transaction.
		for i := range fence {
			if i < len(tc.Reasons) && tc.Reasons[i] != nil {
				rt.stats.FencedClaims.Add(1)
				break
			}
		}
		return false, nil
	}
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return false, nil
	}
	return false, err
}
