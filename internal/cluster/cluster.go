// Package cluster is the multi-worker distributed runtime: it lets N
// independent worker processes — each hosting its own platform, function
// registry and collectors — cooperate over one shared
// storage.Backend with crash tolerance, the deployment shape the paper's
// fault-tolerance story assumes (§2.1: a fleet of stateless workers
// re-invoking timed-out SSFs over shared logs) and the one Netherite treats
// as the defining serverless workload (partition ownership moving between
// compute nodes).
//
// The design is peer-to-peer: there is no coordinator process, only shared
// tables.
//
//   - A lease table records one row per worker: a monotonically increasing
//     Epoch (the worker-identity fencing token), an ExpiresAt heartbeat
//     deadline, and a live/dead State. Workers renew their lease with a
//     conditional write guarded on their epoch; a renewal that fails means
//     the worker has been fenced and must stop claiming work.
//
//   - A partition table divides the intent space into a fixed number of
//     partitions, each owned by at most one worker. Every ownership
//     transition — claim, steal, release — bumps the partition's Epoch, so
//     an ownership record doubles as a fencing token: a worker that lost a
//     partition holds a stale epoch and every claim it fences with it is
//     rejected by the store.
//
//   - Each worker runs a failure detector: a scan that marks workers whose
//     lease expired as dead (guarded on the observed epoch and deadline, so
//     a heartbeat landing at the same instant wins or loses atomically) and
//     then steals the dead worker's partitions. The next collection pass on
//     the thief re-executes the dead worker's in-flight intents — work
//     stealing with exactly-once preserved, because intent claims ride in
//     one store transaction with a condition check on the thief's partition
//     epoch (core.CollectorGate).
//
// Safety never rests on the failure detector being right: marking a live
// worker dead (clock skew, a long GC pause) only fences it — the victim
// discovers the fencing at its next heartbeat and stops, and until then the
// store rejects its claims. Liveness rests on leases: as long as some worker
// heartbeats and detects, every pending intent is eventually owned by a live
// worker's collector. See OPERATIONS.md for tuning and failure modes.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// Cluster errors.
var (
	// ErrFenced reports that this worker's lease was revoked (its epoch no
	// longer matches, or it was marked dead): the worker must stop claiming
	// work. Rejoin with a fresh Join to resume under a new epoch.
	ErrFenced = errors.New("cluster: worker fenced (lease revoked)")
	// ErrWorkerExists reports a Join with a worker id that is still live and
	// unexpired in the lease table.
	ErrWorkerExists = errors.New("cluster: worker id already live")
	// ErrConfigMismatch reports a Join whose options disagree with the
	// cluster's persisted configuration (partition count).
	ErrConfigMismatch = errors.New("cluster: options disagree with persisted cluster config")
)

// Defaults for Options zero values.
const (
	DefaultLeaseTTL   = time.Second
	DefaultPartitions = 16
)

// Lease and partition table attributes.
const (
	attrWorkerID   = "WorkerId"
	attrPartID     = "PartId"
	attrEpoch      = "Epoch"
	attrExpiresAt  = "ExpiresAt"
	attrState      = "State"
	attrJoinedAt   = "JoinedAt"
	attrOwner      = "Owner"
	attrPartitions = "Partitions"
)

// Lease states.
const (
	stateLive = "live"
	stateDead = "dead"
)

// configRowID keys the cluster's persisted configuration inside the lease
// table ("~" cannot collide with worker ids, which Join rejects).
const configRowID = "~config"

// leaseTableOf and partTableOf name the cluster's shared tables.
func leaseTableOf(cluster string) string { return "cluster." + cluster + ".leases" }
func partTableOf(cluster string) string  { return "cluster." + cluster + ".parts" }

// PartitionOf maps an instance id (or any string key) to its partition in an
// n-partition cluster — FNV-1a, the stable assignment every worker agrees
// on.
func PartitionOf(id string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id)) //nolint:errcheck // fnv never fails
	return int(h.Sum32() % uint32(n))
}

// partID renders a partition's row key.
func partID(p int) string { return fmt.Sprintf("p%04d", p) }

// ensureTables creates (or adopts) the cluster's lease and partition tables
// and seeds the partition rows. Concurrent joiners race benignly: creation
// collisions adopt, row seeds are guarded on absence.
func ensureTables(store storage.Backend, cluster string, partitions int) (gotPartitions int, err error) {
	for _, s := range []dynamo.Schema{
		{Name: leaseTableOf(cluster), HashKey: attrWorkerID},
		{Name: partTableOf(cluster), HashKey: attrPartID},
	} {
		if err := store.CreateTable(s); err != nil && !errors.Is(err, dynamo.ErrTableExists) {
			return 0, err
		}
	}
	// Persist the partition count with the first joiner; later joiners adopt
	// it (a partition layout, like a table layout, is fixed at creation).
	// A zero request means "adopt, or the default when creating" — resolve
	// it BEFORE persisting, or a fresh cluster would durably record a
	// zero-partition layout nothing can join or hash into. The mismatch
	// check compares the caller's *request*, so an adopting zero never
	// conflicts with a cluster created at a non-default count.
	requested := partitions
	if partitions == 0 {
		partitions = DefaultPartitions
	}
	cfg := dynamo.Item{
		attrWorkerID:   dynamo.S(configRowID),
		attrPartitions: dynamo.NInt(int64(partitions)),
	}
	err = store.Put(leaseTableOf(cluster), cfg, dynamo.NotExists(dynamo.A(attrWorkerID)))
	switch {
	case err == nil:
	case errors.Is(err, dynamo.ErrConditionFailed):
		row, ok, gerr := store.Get(leaseTableOf(cluster), dynamo.HK(dynamo.S(configRowID)))
		if gerr != nil || !ok {
			return 0, fmt.Errorf("cluster: read config row: %v", gerr)
		}
		stored := int(row[attrPartitions].Int())
		if requested != 0 && requested != stored {
			return 0, fmt.Errorf("%w: Partitions=%d but cluster has %d", ErrConfigMismatch, requested, stored)
		}
		partitions = stored
	default:
		return 0, err
	}
	for p := 0; p < partitions; p++ {
		row := dynamo.Item{
			attrPartID: dynamo.S(partID(p)),
			attrOwner:  dynamo.S(""),
			attrEpoch:  dynamo.NInt(0),
		}
		err := store.Put(partTableOf(cluster), row, dynamo.NotExists(dynamo.A(attrPartID)))
		if err != nil && !errors.Is(err, dynamo.ErrConditionFailed) {
			return 0, err
		}
	}
	return partitions, nil
}

// WorkerInfo is one lease-table row, decoded for inspection.
type WorkerInfo struct {
	ID        string
	Epoch     int64
	State     string // "live" or "dead"
	ExpiresAt int64  // microseconds since the epoch
	JoinedAt  int64
}

// PartitionInfo is one partition-table row, decoded for inspection.
type PartitionInfo struct {
	Partition int
	Owner     string // "" when unowned
	Epoch     int64  // fencing token; bumps on every ownership transition
}
