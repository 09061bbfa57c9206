package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/uuid"
)

// Options configure a Worker's Join.
type Options struct {
	// Cluster names the cluster (the shared-table prefix); workers with the
	// same name on the same Store form one pool. Default "main".
	Cluster string
	// ID is the worker's identity in the lease table; generated when empty.
	// Rejoining a dead or expired id resumes that identity at a higher
	// epoch.
	ID string
	// Store is the shared backend every worker of the cluster coordinates
	// over. Required.
	Store storage.Backend
	// LeaseTTL is how long a heartbeat keeps the worker's lease alive; a
	// worker silent for longer is marked dead and its work stolen. 0 means
	// DefaultLeaseTTL. Worker clock skew must stay well under this bound
	// (see OPERATIONS.md). Start's loop runs on periods derived from it:
	// heartbeat LeaseTTL/4, detect LeaseTTL/2, rebalance LeaseTTL.
	LeaseTTL time.Duration
	// Partitions is the cluster's partition count; only the first joiner's
	// value matters (later joiners adopt the persisted count, and error if
	// they ask for a different one). 0 adopts, or DefaultPartitions when
	// creating.
	Partitions int
	// Clock defaults to the wall clock (tests inject clock.Manual to expire
	// leases deterministically).
	Clock clock.Clock
	// IDs mints worker ids when ID is empty; defaults to random UUIDs.
	IDs uuid.Source
}

func (o Options) withDefaults() Options {
	if o.Cluster == "" {
		o.Cluster = "main"
	}
	if o.LeaseTTL == 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	if o.IDs == nil {
		o.IDs = uuid.Random{}
	}
	return o
}

// Stats counts a worker's cluster-protocol activity.
type Stats struct {
	// Heartbeats renewed and failure-detector passes run.
	Heartbeats atomic.Int64
	Detects    atomic.Int64
	// DeadMarked counts workers this worker's detector declared dead;
	// Steals, Claims and Releases count partition ownership transitions this
	// worker performed (steals from dead workers, claims of unowned
	// partitions, voluntary releases while over fair share).
	DeadMarked atomic.Int64
	Steals     atomic.Int64
	Claims     atomic.Int64
	Releases   atomic.Int64
}

// StatsView is a point-in-time copy for reporting — the common snapshot
// shape shared with core.Stats, dynamo.Metrics, and the other subsystems.
type StatsView struct {
	Heartbeats, Detects, DeadMarked int64
	Steals, Claims, Releases        int64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsView {
	return StatsView{
		Heartbeats: s.Heartbeats.Load(),
		Detects:    s.Detects.Load(),
		DeadMarked: s.DeadMarked.Load(),
		Steals:     s.Steals.Load(),
		Claims:     s.Claims.Load(),
		Releases:   s.Releases.Load(),
	}
}

// Worker is one member of a cluster: a lease it heartbeats and the
// partitions it owns. As a core.CollectorGate it scopes and fences the
// intent collection of the runtimes that install it (SetCollectorGate).
// Create with Join; drive deterministically with the *Once methods or start
// the background loop with Start.
type Worker struct {
	id    string
	store storage.Backend
	clk   clock.Clock
	ttl   time.Duration // LeaseTTL; every loop period derives from it

	partitions int
	leases     string
	parts      string

	mu     sync.Mutex
	epoch  int64
	owned  map[int]int64 // partition → fencing epoch under which we own it
	fenced bool

	loopMu  sync.Mutex
	stopCh  chan struct{}
	started bool
	wg      sync.WaitGroup

	stats Stats
}

// Join registers a worker in the cluster: it creates or adopts the shared
// tables, acquires an epoch-fenced lease, and claims an initial fair share
// of partitions. The returned worker owns no background goroutines until
// Start.
func Join(opts Options) (*Worker, error) {
	opts = opts.withDefaults()
	if opts.Store == nil {
		return nil, fmt.Errorf("cluster: Join: Store is required")
	}
	if opts.ID == "" {
		opts.ID = "w-" + opts.IDs.NewString()
	}
	if opts.ID == configRowID {
		return nil, fmt.Errorf("cluster: Join: reserved worker id %q", opts.ID)
	}
	partitions, err := ensureTables(opts.Store, opts.Cluster, opts.Partitions)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		id:         opts.ID,
		store:      opts.Store,
		clk:        opts.Clock,
		ttl:        opts.LeaseTTL,
		partitions: partitions,
		leases:     leaseTableOf(opts.Cluster),
		parts:      partTableOf(opts.Cluster),
		owned:      make(map[int]int64),
	}
	if err := w.acquireLease(); err != nil {
		return nil, err
	}
	if _, _, err := w.RebalanceOnce(); err != nil {
		return nil, err
	}
	return w, nil
}

// acquireLease installs (or takes over) this worker's lease row.
func (w *Worker) acquireLease() error {
	now := w.now()
	exp := now + w.ttl.Microseconds()
	row, ok, err := w.store.Get(w.leases, dynamo.HK(dynamo.S(w.id)))
	if err != nil {
		return err
	}
	if !ok {
		item := dynamo.Item{
			attrWorkerID:  dynamo.S(w.id),
			attrEpoch:     dynamo.NInt(1),
			attrState:     dynamo.S(stateLive),
			attrExpiresAt: dynamo.NInt(exp),
			attrJoinedAt:  dynamo.NInt(now),
		}
		err := w.store.Put(w.leases, item, dynamo.NotExists(dynamo.A(attrWorkerID)))
		if errors.Is(err, dynamo.ErrConditionFailed) {
			return fmt.Errorf("%w: %s (lost the join race)", ErrWorkerExists, w.id)
		}
		if err != nil {
			return err
		}
		w.setEpoch(1)
		return nil
	}
	obsEpoch := row[attrEpoch].Int()
	if row[attrState].Str() == stateLive && row[attrExpiresAt].Int() > now {
		return fmt.Errorf("%w: %s", ErrWorkerExists, w.id)
	}
	// Dead or expired: take the identity over at the next epoch. Guarding on
	// the observed epoch keeps two simultaneous rejoins from sharing one.
	err = w.store.Update(w.leases, dynamo.HK(dynamo.S(w.id)),
		dynamo.Eq(dynamo.A(attrEpoch), dynamo.NInt(obsEpoch)),
		dynamo.Set(dynamo.A(attrEpoch), dynamo.NInt(obsEpoch+1)),
		dynamo.Set(dynamo.A(attrState), dynamo.S(stateLive)),
		dynamo.Set(dynamo.A(attrExpiresAt), dynamo.NInt(exp)),
		dynamo.Set(dynamo.A(attrJoinedAt), dynamo.NInt(now)),
	)
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return fmt.Errorf("%w: %s (lost the rejoin race)", ErrWorkerExists, w.id)
	}
	if err != nil {
		return err
	}
	w.setEpoch(obsEpoch + 1)
	return nil
}

// setEpoch records the lease epoch under the ownership lock.
func (w *Worker) setEpoch(e int64) {
	w.mu.Lock()
	w.epoch = e
	w.mu.Unlock()
}

// Rejoin re-acquires this worker's lease after fencing: the identity comes
// back at a higher epoch with no partitions (rebalancing earns a fair share
// back), exactly like a process restart under the same name. Start's lease
// loop calls it automatically, so a worker fenced by a transient
// stall (CPU starvation, a long pause — the zombie scenarios) returns to
// the pool instead of leaving it short-handed forever. No-op while the
// worker is not fenced; ErrWorkerExists while its old lease is still live
// and unexpired (another holder has the identity).
func (w *Worker) Rejoin() error {
	w.mu.Lock()
	if !w.fenced {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	if err := w.acquireLease(); err != nil {
		return err
	}
	w.mu.Lock()
	w.fenced = false
	w.owned = make(map[int]int64)
	w.mu.Unlock()
	return nil
}

// ID returns the worker's lease identity.
func (w *Worker) ID() string { return w.id }

// Epoch returns the worker's lease epoch.
func (w *Worker) Epoch() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Partitions returns the cluster's partition count.
func (w *Worker) Partitions() int { return w.partitions }

// Fenced reports whether the worker has observed the loss of its lease (a
// heartbeat or cluster operation failed its epoch guard). A fenced worker
// claims nothing; rejoin to resume.
func (w *Worker) Fenced() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fenced
}

// Stats exposes the worker's cluster-protocol counters.
func (w *Worker) Stats() *Stats { return &w.stats }

// OwnedPartitions lists the partitions this worker currently believes it
// owns, sorted.
func (w *Worker) OwnedPartitions() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int, 0, len(w.owned))
	for p := range w.owned {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// now returns the worker's clock reading in microseconds since the epoch —
// the unit of every lease timestamp.
func (w *Worker) now() int64 { return w.clk.Now().UnixMicro() }

// fence records that this worker's authority is gone: it stops owning
// partitions and every later cluster operation fails fast with ErrFenced.
// The in-store partition epochs already exclude it; this is the local
// acknowledgment.
func (w *Worker) fence() {
	w.mu.Lock()
	w.fenced = true
	w.owned = make(map[int]int64)
	w.mu.Unlock()
}

// checkFenced returns ErrFenced once the worker has observed fencing.
func (w *Worker) checkFenced() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fenced {
		return ErrFenced
	}
	return nil
}

// HeartbeatOnce renews the worker's lease, guarded on its epoch and live
// state. A failed guard means the worker was fenced (marked dead, or its
// identity rejoined at a higher epoch): the worker transitions to the
// fenced state and returns ErrFenced.
func (w *Worker) HeartbeatOnce() error {
	if err := w.checkFenced(); err != nil {
		return err
	}
	w.mu.Lock()
	epoch := w.epoch
	w.mu.Unlock()
	err := w.store.Update(w.leases, dynamo.HK(dynamo.S(w.id)),
		dynamo.And(
			dynamo.Eq(dynamo.A(attrEpoch), dynamo.NInt(epoch)),
			dynamo.Eq(dynamo.A(attrState), dynamo.S(stateLive)),
		),
		dynamo.Set(dynamo.A(attrExpiresAt), dynamo.NInt(w.now()+w.ttl.Microseconds())),
	)
	if errors.Is(err, dynamo.ErrConditionFailed) {
		w.fence()
		return ErrFenced
	}
	if err != nil {
		return err
	}
	w.stats.Heartbeats.Add(1)
	return nil
}

// DetectOnce runs one failure-detection pass: every live lease whose
// deadline has passed (ExpiresAt ≤ now, so a lease is dead exactly at its
// deadline) is marked dead — guarded on the observed epoch and deadline, so
// a heartbeat racing the verdict wins or loses atomically — and the dead
// worker's partitions are stolen by this worker at bumped epochs. It
// returns the ids marked dead and the number of partitions stolen; run an
// intent-collection pass afterwards to restart the stolen in-flight
// intents.
func (w *Worker) DetectOnce() (dead []string, stolen int, err error) {
	if err := w.checkFenced(); err != nil {
		return nil, 0, err
	}
	w.stats.Detects.Add(1)
	now := w.now()
	rows, err := w.store.Scan(w.leases, dynamo.QueryOpts{})
	if err != nil {
		return nil, 0, err
	}
	for _, row := range rows {
		id := row[attrWorkerID].Str()
		if id == configRowID || id == w.id {
			continue
		}
		if row[attrState].Str() != stateLive || row[attrExpiresAt].Int() > now {
			continue
		}
		err := w.store.Update(w.leases, dynamo.HK(dynamo.S(id)),
			dynamo.And(
				dynamo.Eq(dynamo.A(attrEpoch), row[attrEpoch]),
				dynamo.Eq(dynamo.A(attrExpiresAt), row[attrExpiresAt]),
				dynamo.Eq(dynamo.A(attrState), dynamo.S(stateLive)),
			),
			dynamo.Set(dynamo.A(attrState), dynamo.S(stateDead)),
		)
		if errors.Is(err, dynamo.ErrConditionFailed) {
			continue // it heartbeated in time, or another detector won
		}
		if err != nil {
			return dead, stolen, err
		}
		w.stats.DeadMarked.Add(1)
		dead = append(dead, id)
		n, err := w.stealFrom(id)
		stolen += n
		if err != nil {
			return dead, stolen, err
		}
	}
	return dead, stolen, nil
}

// stealFrom re-claims every partition owned by a (now dead) worker for this
// worker, bumping each partition's epoch so the dead worker's cached fencing
// tokens go stale.
func (w *Worker) stealFrom(deadID string) (int, error) {
	rows, err := w.store.Scan(w.parts, dynamo.QueryOpts{
		Filter: dynamo.Eq(dynamo.A(attrOwner), dynamo.S(deadID)),
	})
	if err != nil {
		return 0, err
	}
	stolen := 0
	for _, row := range rows {
		p, ok := parsePartID(row[attrPartID].Str())
		if !ok {
			continue
		}
		if w.claimPartition(p, deadID, row[attrEpoch].Int()) {
			w.stats.Steals.Add(1)
			stolen++
		}
	}
	return stolen, nil
}

// claimPartition transfers one partition to this worker, guarded on the
// observed owner and epoch; it records the new fencing epoch on success.
func (w *Worker) claimPartition(p int, fromOwner string, obsEpoch int64) bool {
	err := w.store.Update(w.parts, dynamo.HK(dynamo.S(partID(p))),
		dynamo.And(
			dynamo.Eq(dynamo.A(attrOwner), dynamo.S(fromOwner)),
			dynamo.Eq(dynamo.A(attrEpoch), dynamo.NInt(obsEpoch)),
		),
		dynamo.Set(dynamo.A(attrOwner), dynamo.S(w.id)),
		dynamo.Set(dynamo.A(attrEpoch), dynamo.NInt(obsEpoch+1)),
	)
	if err != nil {
		return false // lost the race (or a store error; the next pass retries)
	}
	w.mu.Lock()
	if !w.fenced {
		w.owned[p] = obsEpoch + 1
	}
	w.mu.Unlock()
	return true
}

// RebalanceOnce converges partition ownership toward a fair share: it
// re-claims partitions still recorded for this worker's id but absent from
// its cache, claims unowned partitions and partitions of dead-marked
// workers while under its share, and releases its highest partitions while
// over. With a stable live set, repeated passes across the workers converge
// to every partition owned and no worker above ⌈P/N⌉.
//
// Rebalancing never takes a partition from a worker that merely *looks*
// expired — that is the failure detector's job, because marking the owner
// dead first is what guarantees the owner's next heartbeat fences it (and
// clears its ownership cache). A steal without the verdict would leave a
// live owner convinced it still holds the partition: its share count stays
// inflated, it stops claiming, and an unowned partition can go permanently
// unclaimed while every worker believes it is at fair share.
func (w *Worker) RebalanceOnce() (claimed, released int, err error) {
	if err := w.checkFenced(); err != nil {
		return 0, 0, err
	}
	now := w.now()
	leaseRows, err := w.store.Scan(w.leases, dynamo.QueryOpts{})
	if err != nil {
		return 0, 0, err
	}
	live := make(map[string]bool) // renewing: counts toward fair share
	dead := make(map[string]bool) // dead-marked: partitions claimable
	for _, row := range leaseRows {
		id := row[attrWorkerID].Str()
		if id == configRowID {
			continue
		}
		switch {
		case row[attrState].Str() == stateDead:
			dead[id] = true
		case row[attrExpiresAt].Int() > now:
			live[id] = true
		}
	}
	if !live[w.id] {
		// Our own lease looks expired to our own clock: heartbeat before
		// claiming anything (an expired claimant must not grab partitions a
		// detector is about to steal).
		if err := w.HeartbeatOnce(); err != nil {
			return 0, 0, err
		}
		live[w.id] = true
	}
	fair := (w.partitions + len(live) - 1) / len(live)

	partRows, err := w.store.Scan(w.parts, dynamo.QueryOpts{})
	if err != nil {
		return 0, 0, err
	}
	sort.Slice(partRows, func(i, j int) bool {
		return partRows[i][attrPartID].Str() < partRows[j][attrPartID].Str()
	})

	// Pass 1 — adopt every partition the table still records for this id
	// but the cache has forgotten: a previous incarnation's rows, or rows
	// orphaned when fencing cleared the cache before a rejoin. These must
	// be re-claimed UNCONDITIONALLY (the fair-share cap does not apply):
	// the table says a live worker owns them, so no peer may touch them —
	// leaving them uncached would orphan their intents forever. Re-claiming
	// bumps the epoch, fencing off the old incarnation's tokens; the
	// release pass below trims any excess.
	for _, row := range partRows {
		p, ok := parsePartID(row[attrPartID].Str())
		if !ok || row[attrOwner].Str() != w.id {
			continue
		}
		w.mu.Lock()
		_, cached := w.owned[p]
		w.mu.Unlock()
		if cached {
			continue
		}
		if w.claimPartition(p, w.id, row[attrEpoch].Int()) {
			w.stats.Claims.Add(1)
			claimed++
		}
	}
	w.mu.Lock()
	mine := len(w.owned)
	w.mu.Unlock()

	// Pass 2 — claim unowned partitions and partitions of dead-marked
	// workers while under the fair share. Owners that are expired but not
	// yet marked dead are left for the detector.
	for _, row := range partRows {
		if mine >= fair {
			break
		}
		p, ok := parsePartID(row[attrPartID].Str())
		if !ok {
			continue
		}
		owner := row[attrOwner].Str()
		w.mu.Lock()
		_, cached := w.owned[p]
		w.mu.Unlock()
		if cached {
			continue
		}
		if owner != "" && !dead[owner] {
			continue // a worker with standing (or an undetected corpse) holds it
		}
		if w.claimPartition(p, owner, row[attrEpoch].Int()) {
			if owner != "" {
				// A dead-marked worker's partition: the same transition as the
				// detector's own steal, whichever of the two scans first.
				w.stats.Steals.Add(1)
			} else {
				w.stats.Claims.Add(1)
			}
			claimed++
			mine++
		}
	}

	// Release the excess, highest partitions first, so under-share workers
	// can pick them up.
	for mine > fair {
		w.mu.Lock()
		var victim, maxP = -1, -1
		var fenceEpoch int64
		for p, e := range w.owned {
			if p > maxP {
				victim, maxP, fenceEpoch = p, p, e
			}
		}
		w.mu.Unlock()
		if victim < 0 {
			break
		}
		err := w.store.Update(w.parts, dynamo.HK(dynamo.S(partID(victim))),
			dynamo.And(
				dynamo.Eq(dynamo.A(attrOwner), dynamo.S(w.id)),
				dynamo.Eq(dynamo.A(attrEpoch), dynamo.NInt(fenceEpoch)),
			),
			dynamo.Set(dynamo.A(attrOwner), dynamo.S("")),
			dynamo.Set(dynamo.A(attrEpoch), dynamo.NInt(fenceEpoch+1)),
		)
		w.mu.Lock()
		delete(w.owned, victim)
		mine = len(w.owned)
		w.mu.Unlock()
		if err == nil {
			w.stats.Releases.Add(1)
			released++
		}
	}
	return claimed, released, nil
}

// parsePartID decodes a partition row key.
func parsePartID(s string) (int, bool) {
	var p int
	if _, err := fmt.Sscanf(s, "p%04d", &p); err != nil {
		return 0, false
	}
	return p, true
}

// --- collector gate ------------------------------------------------------

// OwnsIntent implements core.CollectorGate: the worker owns an intent when
// it owns the intent id's partition (and is not fenced).
func (w *Worker) OwnsIntent(id string) bool {
	p := PartitionOf(id, w.partitions)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fenced {
		return false
	}
	_, ok := w.owned[p]
	return ok
}

// ClaimFence implements core.CollectorGate: a condition check asserting, in
// the same transaction as the claim, that this worker still owns the
// intent's partition at the epoch it cached when it claimed the partition.
// A zombie whose partition was stolen holds a stale epoch, so the store
// rejects its claim.
func (w *Worker) ClaimFence(id string) []dynamo.TxOp {
	p := PartitionOf(id, w.partitions)
	w.mu.Lock()
	epoch, ok := w.owned[p]
	w.mu.Unlock()
	if !ok {
		epoch = -1 // lost between OwnsIntent and here: fence can never pass
	}
	return []dynamo.TxOp{{
		Table: w.parts,
		Key:   dynamo.HK(dynamo.S(partID(p))),
		Cond: dynamo.And(
			dynamo.Eq(dynamo.A(attrOwner), dynamo.S(w.id)),
			dynamo.Eq(dynamo.A(attrEpoch), dynamo.NInt(epoch)),
		),
		Check: true,
	}}
}

// --- lifecycle -------------------------------------------------------------

// Start launches the worker's lease loop: one goroutine on the worker's
// clock whose tick is LeaseTTL/4. Each tick renews the lease first; every
// 2 ticks a detection pass follows, and every 4 a rebalancing pass. A
// detection pass that steals partitions, or a rebalancing pass that claims
// some, calls afterClaim (nil for none), so the caller's collection can
// restart the intents they hold at once. A fenced worker attempts Rejoin on
// its ticks instead: a stall that cost the lease costs the partitions,
// never the worker's life. Stop (or Leave) halts the loop; a Start after
// Stop starts it again.
func (w *Worker) Start(afterClaim func()) {
	w.loopMu.Lock()
	defer w.loopMu.Unlock()
	if w.started {
		return
	}
	w.started = true
	w.stopCh = make(chan struct{})
	w.wg.Add(1)
	go w.leaseLoop(w.stopCh, afterClaim)
}

// leaseLoop is Start's goroutine. Detection and rebalancing are a scan or
// two of the small lease and partition tables, so they never hold a tick's
// heartbeat back for long; the collection passes, which can, run on the
// caller's own loop.
func (w *Worker) leaseLoop(stopCh chan struct{}, afterClaim func()) {
	defer w.wg.Done()
	for tick := 1; w.wait(stopCh, w.ttl/4); tick++ {
		if w.Fenced() {
			w.Rejoin() //nolint:errcheck // old lease may still run; retry next tick
			continue
		}
		w.HeartbeatOnce() //nolint:errcheck // fencing handled next tick; store errors retry
		// On an error the next tick retries.
		claimed := 0
		if tick%2 == 0 {
			_, claimed, _ = w.DetectOnce()
		}
		if tick%4 == 0 {
			n, _, _ := w.RebalanceOnce()
			claimed += n
		}
		if claimed > 0 && afterClaim != nil {
			afterClaim()
		}
	}
}

// wait sleeps d on the worker's clock. It reports false, at once, when
// stopCh closes.
func (w *Worker) wait(stopCh chan struct{}, d time.Duration) bool {
	select {
	case <-stopCh:
		return false
	case <-w.clk.After(d):
		return true
	}
}

// Stop halts the lease loop without touching the lease — the
// crash-shaped stop: the lease runs out, a peer marks the worker dead and
// steals its work. Use Leave for a graceful exit.
func (w *Worker) Stop() {
	w.loopMu.Lock()
	if !w.started {
		w.loopMu.Unlock()
		return
	}
	w.started = false
	close(w.stopCh)
	w.loopMu.Unlock()
	w.wg.Wait()
}

// Leave exits gracefully: it releases every owned partition, marks its own
// lease dead, and stops the loop. Peers rebalance the released partitions
// without waiting out the lease TTL.
func (w *Worker) Leave() error {
	w.Stop()
	if err := w.checkFenced(); err != nil {
		return err
	}
	w.mu.Lock()
	owned := make(map[int]int64, len(w.owned))
	for p, e := range w.owned {
		owned[p] = e
	}
	epoch := w.epoch
	w.mu.Unlock()
	for p, e := range owned {
		err := w.store.Update(w.parts, dynamo.HK(dynamo.S(partID(p))),
			dynamo.And(
				dynamo.Eq(dynamo.A(attrOwner), dynamo.S(w.id)),
				dynamo.Eq(dynamo.A(attrEpoch), dynamo.NInt(e)),
			),
			dynamo.Set(dynamo.A(attrOwner), dynamo.S("")),
			dynamo.Set(dynamo.A(attrEpoch), dynamo.NInt(e+1)),
		)
		if err != nil && !errors.Is(err, dynamo.ErrConditionFailed) {
			return err
		}
	}
	err := w.store.Update(w.leases, dynamo.HK(dynamo.S(w.id)),
		dynamo.And(
			dynamo.Eq(dynamo.A(attrEpoch), dynamo.NInt(epoch)),
			dynamo.Eq(dynamo.A(attrState), dynamo.S(stateLive)),
		),
		dynamo.Set(dynamo.A(attrState), dynamo.S(stateDead)),
	)
	w.fence()
	if err != nil && !errors.Is(err, dynamo.ErrConditionFailed) {
		return err
	}
	return nil
}

// --- inspection ------------------------------------------------------------

// Workers decodes the cluster's lease table.
func (w *Worker) Workers() ([]WorkerInfo, error) {
	rows, err := w.store.Scan(w.leases, dynamo.QueryOpts{})
	if err != nil {
		return nil, err
	}
	out := make([]WorkerInfo, 0, len(rows))
	for _, row := range rows {
		if row[attrWorkerID].Str() == configRowID {
			continue
		}
		out = append(out, WorkerInfo{
			ID:        row[attrWorkerID].Str(),
			Epoch:     row[attrEpoch].Int(),
			State:     row[attrState].Str(),
			ExpiresAt: row[attrExpiresAt].Int(),
			JoinedAt:  row[attrJoinedAt].Int(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// PartitionTable decodes the cluster's partition-ownership table.
func (w *Worker) PartitionTable() ([]PartitionInfo, error) {
	rows, err := w.store.Scan(w.parts, dynamo.QueryOpts{})
	if err != nil {
		return nil, err
	}
	out := make([]PartitionInfo, 0, len(rows))
	for _, row := range rows {
		p, ok := parsePartID(row[attrPartID].Str())
		if !ok {
			continue
		}
		out = append(out, PartitionInfo{
			Partition: p,
			Owner:     row[attrOwner].Str(),
			Epoch:     row[attrEpoch].Int(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Partition < out[j].Partition })
	return out, nil
}

// Compile-time check: Worker is a core.CollectorGate.
var _ core.CollectorGate = (*Worker)(nil)
