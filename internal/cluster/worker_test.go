package cluster_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

// testTTL is the lease TTL every deterministic test runs with; clocks are
// manual, so the absolute value only matters relative to Advance calls.
const testTTL = 100 * time.Millisecond

var t0 = time.Unix(1_700_000_000, 0)

// newSharedStore opens the matrix-selected shared backend.
func newSharedStore(t *testing.T) storage.Backend { return storagetest.Open(t) }

// join creates a worker on the shared store with its own manual clock.
func join(t *testing.T, store storage.Backend, clk clock.Clock, id string, partitions int) *cluster.Worker {
	t.Helper()
	w, err := cluster.Join(cluster.Options{
		Cluster:    "test",
		ID:         id,
		Store:      store,
		LeaseTTL:   testTTL,
		Partitions: partitions,
		Clock:      clk,
	})
	if err != nil {
		t.Fatalf("join %s: %v", id, err)
	}
	return w
}

// newRuntime builds one worker's view of the shared SSF "counter": its own
// platform, the shared tables adopted, the body registered. The body
// increments state key "n" — the exactly-once probe.
func newRuntime(t *testing.T, store storage.Backend, clk clock.Clock, name string) (*core.Runtime, *platform.Platform) {
	t.Helper()
	plat := platform.New(platform.Options{ConcurrencyLimit: 1000, IDs: &uuid.Seq{Prefix: "req-" + name}})
	rt, err := core.NewRuntime(core.RuntimeOptions{
		Function: "counter",
		Store:    store,
		Platform: plat,
		Config:   core.Config{T: 10 * time.Millisecond, ICMinAge: time.Microsecond},
		Clock:    clk,
	})
	if err != nil {
		t.Fatalf("runtime %s: %v", name, err)
	}
	if err := rt.CreateDataTable("state"); err != nil {
		t.Fatalf("data table %s: %v", name, err)
	}
	core.Register(rt, func(e *core.Env, _ core.Value) (core.Value, error) {
		v, err := e.Read("state", "n")
		if err != nil {
			return dynamo.Null, err
		}
		next := dynamo.NInt(v.Int() + 1)
		if err := e.Write("state", "n", next); err != nil {
			return dynamo.Null, err
		}
		return next, nil
	})
	return rt, plat
}

func TestJoinOwnsAllPartitionsAlone(t *testing.T) {
	store := storagetest.Open(t)
	clk := clock.NewManual(t0)
	w := join(t, store, clk, "w1", 8)
	if got := len(w.OwnedPartitions()); got != 8 {
		t.Fatalf("solo worker owns %d/8 partitions", got)
	}
	if w.Epoch() != 1 {
		t.Errorf("first join epoch = %d, want 1", w.Epoch())
	}
	if err := w.HeartbeatOnce(); err != nil {
		t.Errorf("heartbeat: %v", err)
	}
}

// TestJoinDefaultPartitions pins the documented zero-value behavior: a
// first joiner that never sets Partitions creates the cluster at
// DefaultPartitions (not a bricked zero-partition layout), owns all of
// them, and hashing works; an adopting joiner with zero inherits the
// count, even when the cluster was created at a non-default one.
func TestJoinDefaultPartitions(t *testing.T) {
	store := newSharedStore(t)
	clk := clock.NewManual(t0)
	w := join(t, store, clk, "w1", 0) // all defaults
	if w.Partitions() != cluster.DefaultPartitions {
		t.Fatalf("Partitions = %d, want DefaultPartitions (%d)", w.Partitions(), cluster.DefaultPartitions)
	}
	if got := len(w.OwnedPartitions()); got != cluster.DefaultPartitions {
		t.Fatalf("solo worker owns %d/%d", got, cluster.DefaultPartitions)
	}
	if !w.OwnsIntent("any-instance-id") {
		t.Error("solo default-config worker does not own an arbitrary intent")
	}

	// Adopting zero never conflicts with a non-default cluster.
	store2 := newSharedStore(t)
	if _, err := cluster.Join(cluster.Options{
		Cluster: "odd", Store: store2, LeaseTTL: testTTL, Partitions: 5, Clock: clk, ID: "a",
	}); err != nil {
		t.Fatal(err)
	}
	b, err := cluster.Join(cluster.Options{
		Cluster: "odd", Store: store2, LeaseTTL: testTTL, Clock: clk, ID: "b",
	})
	if err != nil {
		t.Fatalf("adopting join: %v", err)
	}
	if b.Partitions() != 5 {
		t.Fatalf("adopted partitions = %d, want 5", b.Partitions())
	}
}

func TestJoinLiveIDRejected(t *testing.T) {
	store := storagetest.Open(t)
	clk := clock.NewManual(t0)
	join(t, store, clk, "w1", 4)
	_, err := cluster.Join(cluster.Options{
		Cluster: "test", ID: "w1", Store: store, LeaseTTL: testTTL, Clock: clk,
	})
	if !errors.Is(err, cluster.ErrWorkerExists) {
		t.Fatalf("rejoining a live id: err = %v, want ErrWorkerExists", err)
	}
}

func TestJoinPartitionMismatchRejected(t *testing.T) {
	store := storagetest.Open(t)
	clk := clock.NewManual(t0)
	join(t, store, clk, "w1", 4)
	_, err := cluster.Join(cluster.Options{
		Cluster: "test", ID: "w2", Store: store, LeaseTTL: testTTL, Partitions: 8, Clock: clk,
	})
	if !errors.Is(err, cluster.ErrConfigMismatch) {
		t.Fatalf("mismatched partitions: err = %v, want ErrConfigMismatch", err)
	}
}

func TestRebalanceConvergesToFairShare(t *testing.T) {
	store := storagetest.Open(t)
	clk := clock.NewManual(t0)
	a := join(t, store, clk, "a", 16)
	b := join(t, store, clk, "b", 0) // adopts the persisted partition count

	// a holds everything until it notices b; two alternating passes converge.
	for i := 0; i < 3; i++ {
		if _, _, err := a.RebalanceOnce(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.RebalanceOnce(); err != nil {
			t.Fatal(err)
		}
	}
	na, nb := len(a.OwnedPartitions()), len(b.OwnedPartitions())
	if na != 8 || nb != 8 {
		t.Fatalf("shares after rebalance: a=%d b=%d, want 8/8", na, nb)
	}
	seen := map[int]bool{}
	for _, p := range append(a.OwnedPartitions(), b.OwnedPartitions()...) {
		if seen[p] {
			t.Fatalf("partition %d owned twice", p)
		}
		seen[p] = true
	}
}

func TestDetectMarksDeadAndStealsPartitions(t *testing.T) {
	store := storagetest.Open(t)
	clkA, clkB := clock.NewManual(t0), clock.NewManual(t0)
	a := join(t, store, clkA, "a", 8)
	b := join(t, store, clkB, "b", 0)
	for i := 0; i < 3; i++ {
		a.RebalanceOnce() //nolint:errcheck
		b.RebalanceOnce() //nolint:errcheck
	}

	// a falls silent; its lease runs out on b's clock.
	clkB.Advance(2 * testTTL)
	dead, stolen, err := b.DetectOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0] != "a" {
		t.Fatalf("dead = %v, want [a]", dead)
	}
	if stolen != 4 {
		t.Fatalf("stole %d partitions, want 4", stolen)
	}
	if got := len(b.OwnedPartitions()); got != 8 {
		t.Fatalf("b owns %d/8 after steal", got)
	}
	// The dead worker notices at its next heartbeat.
	if err := a.HeartbeatOnce(); !errors.Is(err, cluster.ErrFenced) {
		t.Fatalf("dead worker heartbeat: %v, want ErrFenced", err)
	}
	if !a.Fenced() {
		t.Error("a not fenced after failed heartbeat")
	}
}

func TestRejoinAfterDeathBumpsEpoch(t *testing.T) {
	store := storagetest.Open(t)
	clkA, clkB := clock.NewManual(t0), clock.NewManual(t0)
	a := join(t, store, clkA, "a", 4)
	b := join(t, store, clkB, "b", 0)

	clkB.Advance(2 * testTTL)
	if _, _, err := b.DetectOnce(); err != nil {
		t.Fatal(err)
	}
	clkA.Advance(2 * testTTL)
	a2 := join(t, store, clkA, "a", 0)
	if a2.Epoch() != 2 {
		t.Fatalf("rejoined epoch = %d, want 2", a2.Epoch())
	}
	if a.Epoch() == a2.Epoch() {
		t.Error("old and new incarnation share an epoch")
	}
}

func TestGracefulLeaveReleasesPartitions(t *testing.T) {
	store := storagetest.Open(t)
	clk := clock.NewManual(t0)
	a := join(t, store, clk, "a", 6)
	b := join(t, store, clk, "b", 0)
	for i := 0; i < 3; i++ {
		a.RebalanceOnce() //nolint:errcheck
		b.RebalanceOnce() //nolint:errcheck
	}
	if err := a.Leave(); err != nil {
		t.Fatal(err)
	}
	// No TTL wait: the partitions are immediately claimable.
	if _, _, err := b.RebalanceOnce(); err != nil {
		t.Fatal(err)
	}
	if got := len(b.OwnedPartitions()); got != 6 {
		t.Fatalf("b owns %d/6 after a left", got)
	}
	ws, err := b.Workers()
	if err != nil {
		t.Fatal(err)
	}
	for _, wi := range ws {
		if wi.ID == "a" && wi.State != "dead" {
			t.Errorf("left worker state = %q, want dead", wi.State)
		}
	}
}

// TestZombieCollectorClaimFenced is the fencing regression the cluster
// runtime exists for: a worker that stalls past its lease, is marked dead
// and robbed, and then wakes and tries to restart an in-flight intent must
// have that claim rejected by the store — not by its own (stale) view of the
// world — and the intent must complete exactly once on the thief.
func TestZombieCollectorClaimFenced(t *testing.T) {
	store := storagetest.Open(t)
	clkA, clkB := clock.NewManual(t0), clock.NewManual(t0)
	a := join(t, store, clkA, "a", 4)
	b := join(t, store, clkB, "b", 0)
	rtA, platA := newRuntime(t, store, clkA, "a")
	rtB, platB := newRuntime(t, store, clkB, "b")
	rtA.SetCollectorGate(a)
	rtB.SetCollectorGate(b)

	// a owns every partition (it joined first and b never rebalanced), so
	// the crashing workflow below is a's to recover — until it stalls.
	if got := len(a.OwnedPartitions()); got != 4 {
		t.Fatalf("a owns %d/4", got)
	}

	// A workflow crashes on a's platform right after registering its
	// intent, which it writes at its first effect: a pending intent with no
	// steps logged.
	platA.SetFaults(&platform.CrashOnce{Function: "counter", Label: "intent:logged"})
	_, err := platA.Invoke("counter", core.ClientEnvelope(dynamo.Null))
	if !errors.Is(err, platform.ErrCrashed) {
		t.Fatalf("seeded crash: %v", err)
	}
	platA.SetFaults(nil)

	// a stalls (zombie); its lease expires; b detects and steals everything.
	clkA.Advance(2 * testTTL)
	clkB.Advance(2 * testTTL)
	dead, stolen, err := b.DetectOnce()
	if err != nil || len(dead) != 1 || stolen != 4 {
		t.Fatalf("detect: dead=%v stolen=%d err=%v", dead, stolen, err)
	}

	// The zombie wakes and runs its collector with its stale tokens. Its
	// view still says it owns the intent's partition, so it attempts the
	// claim — and the store's fence check rejects it.
	restarted, err := rtA.RunIntentCollector()
	if err != nil {
		t.Fatalf("zombie collect: %v", err)
	}
	if restarted != 0 {
		t.Fatalf("zombie restarted %d intents; fencing failed", restarted)
	}
	if got := rtA.Stats().FencedClaims.Load(); got < 1 {
		t.Fatalf("FencedClaims = %d, want ≥ 1 (the rejected zombie write)", got)
	}

	// The thief recovers the workflow.
	restarted, err = rtB.RunIntentCollector()
	if err != nil {
		t.Fatal(err)
	}
	if restarted != 1 {
		t.Fatalf("b restarted %d intents, want 1", restarted)
	}
	platB.Drain()
	v, err := rtB.PeekState("state", "n")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 1 {
		t.Fatalf("counter = %d after recovery, want exactly 1", v.Int())
	}
	if err := core.Fsck(rtB); err != nil {
		t.Errorf("fsck after recovery: %v", err)
	}
}

// TestStolenPartitionEpochMonotonic pins the fencing-token invariant every
// ownership transition relies on: claim, steal, release each bump the
// partition epoch by exactly one, so no two owners can ever hold the same
// (owner, epoch) authority.
func TestStolenPartitionEpochMonotonic(t *testing.T) {
	store := storagetest.Open(t)
	clkA, clkB := clock.NewManual(t0), clock.NewManual(t0)
	a := join(t, store, clkA, "a", 3)
	b := join(t, store, clkB, "b", 0)

	before, err := b.PartitionTable()
	if err != nil {
		t.Fatal(err)
	}
	clkB.Advance(2 * testTTL)
	if _, _, err := b.DetectOnce(); err != nil {
		t.Fatal(err)
	}
	after, err := b.PartitionTable()
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i].Owner != "b" {
			t.Errorf("partition %d owner = %q, want b", after[i].Partition, after[i].Owner)
		}
		if after[i].Epoch != before[i].Epoch+1 {
			t.Errorf("partition %d epoch %d → %d, want one bump",
				after[i].Partition, before[i].Epoch, after[i].Epoch)
		}
	}
	_ = a
}

// TestRejoinAfterFencingRestoresWorker pins the liveness half of fencing: a
// worker fenced by a stall is not gone for good — Rejoin brings the same
// identity back at a higher epoch with a clean slate, and rebalancing earns
// its share of partitions back.
func TestRejoinAfterFencingRestoresWorker(t *testing.T) {
	store := newSharedStore(t)
	clkA, clkB := clock.NewManual(t0), clock.NewManual(t0)
	a := join(t, store, clkA, "a", 4)
	b := join(t, store, clkB, "b", 0)

	// a stalls; b takes over the pool.
	clkA.Advance(2 * testTTL)
	clkB.Advance(2 * testTTL)
	if _, _, err := b.DetectOnce(); err != nil {
		t.Fatal(err)
	}
	if err := a.HeartbeatOnce(); !errors.Is(err, cluster.ErrFenced) {
		t.Fatalf("stalled heartbeat: %v", err)
	}

	// Rejoin: same identity, higher epoch, nothing owned yet.
	oldEpoch := a.Epoch()
	if err := a.Rejoin(); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if a.Fenced() {
		t.Fatal("still fenced after rejoin")
	}
	if a.Epoch() <= oldEpoch {
		t.Fatalf("rejoin epoch %d not above %d", a.Epoch(), oldEpoch)
	}
	if n := len(a.OwnedPartitions()); n != 0 {
		t.Fatalf("rejoined worker owns %d partitions before rebalancing", n)
	}
	if err := a.HeartbeatOnce(); err != nil {
		t.Fatalf("heartbeat after rejoin: %v", err)
	}
	// Rebalancing splits the pool again.
	for i := 0; i < 3; i++ {
		b.RebalanceOnce() //nolint:errcheck
		a.RebalanceOnce() //nolint:errcheck
	}
	na, nb := len(a.OwnedPartitions()), len(b.OwnedPartitions())
	if na != 2 || nb != 2 {
		t.Fatalf("shares after rejoin rebalance: a=%d b=%d, want 2/2", na, nb)
	}
	// Rejoin while live is a no-op.
	if err := a.Rejoin(); err != nil {
		t.Fatalf("live rejoin: %v", err)
	}
}

func TestPartitionOfStableAndInRange(t *testing.T) {
	ids := []string{"", "a", "req-0001", "instance-uuid-1234", "counter"}
	for _, id := range ids {
		p := cluster.PartitionOf(id, 16)
		if p < 0 || p >= 16 {
			t.Fatalf("PartitionOf(%q) = %d out of range", id, p)
		}
		if p != cluster.PartitionOf(id, 16) {
			t.Fatalf("PartitionOf(%q) unstable", id)
		}
	}
}

// armingClock is a manual clock that reports every After(period) call, so a
// test advances it only once Start's lease loop waits on its next tick.
type armingClock struct {
	*clock.Manual
	period time.Duration
	armed  chan struct{}
}

func (c *armingClock) After(d time.Duration) <-chan time.Time {
	ch := c.Manual.After(d)
	if d == c.period {
		c.armed <- struct{}{}
	}
	return ch
}

// TestStartRunsTheLeaseTTLSchedule pins the schedule Start derives from
// LeaseTTL alone: one heartbeat per tick of LeaseTTL/4, a detection pass
// every 2 ticks, and afterClaim once, after the pass that steals a silent
// peer's partitions (the rebalancing passes find nothing to claim).
func TestStartRunsTheLeaseTTLSchedule(t *testing.T) {
	store := newSharedStore(t)
	clk := &armingClock{Manual: clock.NewManual(t0), period: testTTL / 4, armed: make(chan struct{}, 8)}
	join(t, store, clock.NewManual(t0), "silent", 4) // owns every partition, never heartbeats
	w := join(t, store, clk, "w1", 0)
	var afterClaim int
	w.Start(func() { afterClaim++ })
	defer w.Stop()
	park := func() {
		select {
		case <-clk.armed:
		case <-time.After(10 * time.Second):
			t.Fatal("the lease loop never waited on its next tick")
		}
	}
	const ticks = 34
	for n := 1; n <= ticks; n++ {
		park()
		clk.Advance(testTTL / 4)
	}
	park() // the loop has finished the last tick
	st := w.Stats().Snapshot()
	if st.Heartbeats != ticks {
		t.Errorf("Heartbeats = %d after %d ticks, want %d", st.Heartbeats, ticks, ticks)
	}
	if st.Detects != ticks/2 {
		t.Errorf("Detects = %d after %d ticks, want %d", st.Detects, ticks, ticks/2)
	}
	if st.Steals != 4 || afterClaim != 1 {
		t.Errorf("%d partitions stolen and afterClaim called %d times, want 4 and 1", st.Steals, afterClaim)
	}
}
