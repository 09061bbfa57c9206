// Package clusterchaos kills and partitions workers of a multi-worker pool
// under the travel and orders workloads, then audits the shared state for
// exactly-once: every workflow that registered an intent completes exactly
// once on some live worker, transactional invariants hold across the kill,
// and a recovered zombie's late writes land nowhere.
//
// These tests run entirely under internal/sim's deterministic scheduler:
// each one pins the scenario seed whose derived (kind, workload) matches
// the chaos shape it guards, so there are no wall-clock sleeps, no timing
// margins, and any failure reproduces bit-identically from the seed (the
// earlier wall-clock versions of these tests raced real goroutines against
// real lease TTLs and needed multi-second settle loops). The audits —
// exactly-once inventory moves, drained pipelines, rejoin at a higher
// epoch, Fsck cleanliness — live in the sim workloads themselves; see
// internal/sim/sweep.go.
package clusterchaos

import (
	"testing"

	"repro/internal/sim"
)

// requireScenario pins the seed→scenario derivation: if ScenarioFor ever
// changes shape, these tests must move to seeds that still exercise the
// chaos they were written for, not silently test something else.
func requireScenario(t *testing.T, seed int64, kind, workload string) {
	t.Helper()
	sc := sim.ScenarioFor(seed)
	if sc.Kind != kind || sc.Workload != workload {
		t.Fatalf("seed %d derives %s/%s, this test needs %s/%s — re-pin the seed",
			seed, sc.Kind, sc.Workload, kind, workload)
	}
}

// TestTravelWorkerKillKeepsReservationsExactlyOnce runs the paper's travel
// reservation workload across a three-worker pool and kills a worker
// mid-load. Each request books a distinct (hotel, flight) pair, so
// exactly-once is auditable per workflow: every booked hotel and flight
// ends at capacity-1 — a lost workflow leaves capacity, a duplicated one
// capacity-2 — and the cross-SSF transaction's invariant (hotel and flight
// move in lockstep) must survive the kill. The scenario also asserts that
// survivors actually stole the victim's partitions.
func TestTravelWorkerKillKeepsReservationsExactlyOnce(t *testing.T) {
	const seed = 3 // kill/travel under the random policy
	requireScenario(t, seed, "kill", "travel")
	if _, err := sim.RunSeed(seed); err != nil {
		t.Fatalf("%v\nreproduce: %s", err, sim.ReproLine(seed))
	}
}

// TestOrdersWorkerKillDrainsPipelineExactlyOnce runs the event-driven order
// pipeline across a three-worker pool with queue-partition ownership
// following leases, kills a worker mid-load, and audits the pipeline's
// per-order counters: every order whose frontend intent landed is charged
// once, reserved once, shipped once and notified once — the killed worker's
// in-flight consumers and unacked messages included.
func TestOrdersWorkerKillDrainsPipelineExactlyOnce(t *testing.T) {
	const seed = 14 // kill/orders under the random policy
	requireScenario(t, seed, "kill", "orders")
	if _, err := sim.RunSeed(seed); err != nil {
		t.Fatalf("%v\nreproduce: %s", err, sim.ReproLine(seed))
	}
}

// TestZombiePartitionHealsAndRejoins partitions a worker away (it stalls:
// no heartbeats, no collection, no polling), lets the pool declare it dead
// and steal its work, then heals the partition. The zombie must rejoin at a
// higher epoch via its own heartbeat pump, and the audit must show no lost
// or duplicated executions from the handover — in either direction.
func TestZombiePartitionHealsAndRejoins(t *testing.T) {
	const seed = 4 // partition/travel under the random policy
	requireScenario(t, seed, "partition", "travel")
	if _, err := sim.RunSeed(seed); err != nil {
		t.Fatalf("%v\nreproduce: %s", err, sim.ReproLine(seed))
	}
}
