package dynamo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the sharded store and the per-shard group-commit batcher. The
// concurrency-heavy tests here are the ones CI runs under the race
// detector: they hammer one shard's batcher with conditional writes while
// readers and whole-table snapshots run alongside.

func TestSchemaShardsOverrideAndDefault(t *testing.T) {
	s := NewStore(WithShards(4))
	if s.DefaultShards() != 4 {
		t.Fatalf("DefaultShards = %d", s.DefaultShards())
	}
	s.MustCreateTable(Schema{Name: "dflt", HashKey: "K"})
	s.MustCreateTable(Schema{Name: "wide", HashKey: "K", Shards: 16})
	for name, want := range map[string]int{"dflt": 4, "wide": 16} {
		n, err := s.TableShards(name)
		if err != nil || n != want {
			t.Errorf("TableShards(%s) = %d, %v; want %d", name, n, err, want)
		}
	}
	if err := s.CreateTable(Schema{Name: "bad", HashKey: "K", Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	// A stripe is an allocation: 1<<40 of them, asked for by a 40-byte frame
	// off a socket, used to be a make that killed the process.
	for _, n := range []int{MaxShards + 1, 1 << 40} {
		if err := s.CreateTable(Schema{Name: "huge", HashKey: "K", Shards: n}); err == nil {
			t.Errorf("shard count %d accepted", n)
		}
	}
	if err := s.CreateTable(Schema{Name: "most", HashKey: "K", Shards: MaxShards}); err != nil {
		t.Errorf("MaxShards refused: %v", err)
	}
	if _, err := s.TableShards("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("TableShards on missing table: %v", err)
	}
}

// TestShardedTableObservableEquivalence drives the same operation sequence
// against 1-shard and 8-shard tables and asserts identical results row by
// row, including whole-table scans (deterministic partition order must not
// depend on the shard layout).
func TestShardedTableObservableEquivalence(t *testing.T) {
	build := func(shards int) *Store {
		s := NewStore(WithShards(shards))
		s.MustCreateTable(Schema{Name: "t", HashKey: "K", SortKey: "R"})
		for i := 0; i < 60; i++ {
			it := Item{"K": S(fmt.Sprintf("k%02d", i%12)), "R": NInt(int64(i)), "V": NInt(int64(i * i))}
			if err := s.Put("t", it, nil); err != nil {
				t.Fatal(err)
			}
		}
		// A few conditional mutations, some failing.
		for i := 0; i < 12; i++ {
			key := HSK(S(fmt.Sprintf("k%02d", i)), NInt(int64(i)))
			err := s.Update("t", key, Eq(A("V"), NInt(int64(i*i))), Set(A("V"), S("updated")))
			if err != nil {
				t.Fatal(err)
			}
			err = s.Delete("t", key, Eq(A("V"), S("nope")))
			if !errors.Is(err, ErrConditionFailed) {
				t.Fatalf("expected condition failure, got %v", err)
			}
		}
		return s
	}
	s1, s8 := build(1), build(8)
	rows1, err1 := s1.Scan("t", QueryOpts{})
	rows8, err8 := s8.Scan("t", QueryOpts{})
	if err1 != nil || err8 != nil {
		t.Fatal(err1, err8)
	}
	if len(rows1) != len(rows8) {
		t.Fatalf("scan sizes differ: %d vs %d", len(rows1), len(rows8))
	}
	for i := range rows1 {
		if !M(map[string]Value(rows1[i])).Equal(M(map[string]Value(rows8[i]))) {
			t.Fatalf("row %d differs:\n1 shard: %v\n8 shards: %v", i, rows1[i], rows8[i])
		}
	}
	n1, _ := s1.TableItemCount("t")
	n8, _ := s8.TableItemCount("t")
	b1, _ := s1.TableBytes("t")
	b8, _ := s8.TableBytes("t")
	if n1 != n8 || b1 != b8 {
		t.Fatalf("count/bytes differ: %d/%d vs %d/%d", n1, b1, n8, b8)
	}
}

// TestGroupCommitBatcherRace hammers one shard's group-commit batcher: many
// writers issuing blind and conditional updates against a single shard,
// with concurrent readers and scans. Run under -race in CI. Invariants:
// counter adds are all applied, every contested claim has exactly one
// winner, and the batcher accounts for every write.
func TestGroupCommitBatcherRace(t *testing.T) {
	s := NewStore(WithShards(1), WithGroupCommit(true))
	s.MustCreateTable(Schema{Name: "t", HashKey: "K"})

	const (
		writers    = 8
		increments = 100
		claimKeys  = 50
	)
	var wg sync.WaitGroup
	var claimWins atomic.Int64
	var writes atomic.Int64

	// Counter writers: concurrent Adds to one row must all land.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				err := s.Update("t", HK(S("counter")), nil, Add(A("N"), 1))
				if err != nil {
					t.Error(err)
					return
				}
				writes.Add(1)
			}
		}()
	}
	// Claimers: for every key, exactly one NotExists put may win even when
	// several land in the same commit batch (per-op conditions are evaluated
	// against the row state the batch predecessors left behind).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < claimKeys; k++ {
				it := Item{"K": S(fmt.Sprintf("claim%03d", k)), "Owner": NInt(int64(w))}
				err := s.Put("t", it, NotExists(A("K")))
				writes.Add(1)
				switch {
				case err == nil:
					claimWins.Add(1)
				case errors.Is(err, ErrConditionFailed):
				default:
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers alongside: consistency smoke while batches commit.
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := s.Get("t", HK(S("counter"))); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Scan("t", QueryOpts{Limit: 5}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()

	it, ok, err := s.Get("t", HK(S("counter")))
	if err != nil || !ok {
		t.Fatalf("counter row: ok=%v err=%v", ok, err)
	}
	if got := it["N"].Int(); got != writers*increments {
		t.Errorf("counter = %d, want %d", got, writers*increments)
	}
	if got := claimWins.Load(); got != claimKeys {
		t.Errorf("claim winners = %d, want %d", got, claimKeys)
	}
	m := s.Metrics().Snapshot()
	if m.GroupCommitOps != writes.Load() {
		t.Errorf("batcher accounted %d ops, %d writes issued", m.GroupCommitOps, writes.Load())
	}
	if m.GroupCommits == 0 || m.GroupCommits > m.GroupCommitOps {
		t.Errorf("implausible batch count %d for %d ops", m.GroupCommits, m.GroupCommitOps)
	}
}

// TestGroupCommitBatchSeesPredecessorWrites aims two dependent writes at
// the batcher while a long flush holds the shard latch, so they usually
// land in one batch and B's condition must observe A's write from within
// it. Scheduling can delay A past B, in which case B legitimately fails
// its condition against the not-yet-written row — B retries until A's
// write is visible, so the test asserts the semantics (a batched op sees
// its predecessors) without asserting the timing, and the race detector
// watches the leader/follower handoff either way.
func TestGroupCommitBatchSeesPredecessorWrites(t *testing.T) {
	s := NewStore(WithShards(1), WithGroupCommit(true),
		WithLatency(CommitCost{Flush: 20 * time.Millisecond}))
	s.MustCreateTable(Schema{Name: "t", HashKey: "K"})

	// Occupy the batcher: the blocker's batch holds the latch ~20ms.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Put("t", Item{"K": S("blocker")}, nil); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(2 * time.Millisecond)

	// A and B enqueue behind the blocker; B's condition only passes once it
	// evaluates against A's write.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Put("t", Item{"K": S("dep"), "V": NInt(1)}, NotExists(A("K"))); err != nil {
			t.Error("A:", err)
		}
	}()
	time.Sleep(2 * time.Millisecond)
	var errB error
	for deadline := time.Now().Add(5 * time.Second); ; {
		errB = s.Update("t", HK(S("dep")), Eq(A("V"), NInt(1)), Set(A("V"), NInt(2)))
		if !errors.Is(errB, ErrConditionFailed) || time.Now().After(deadline) {
			break
		}
	}
	wg.Wait()
	if errB != nil {
		t.Fatalf("B never saw A's write: %v", errB)
	}
	it, _, err := s.Get("t", HK(S("dep")))
	if err != nil || it["V"].Int() != 2 {
		t.Fatalf("final value %v, err %v", it["V"], err)
	}
}

// TestTransactWriteAcrossShardsRace runs concurrent cross-shard transfers
// (guarded TransactWrites) against the batched single-row path and asserts
// the conserved-sum invariant — the tx path locks shard sets in global
// order while group commit holds one shard at a time, so they must compose
// without deadlock or lost updates.
func TestTransactWriteAcrossShardsRace(t *testing.T) {
	s := NewStore(WithShards(8), WithGroupCommit(true))
	s.MustCreateTable(Schema{Name: "acct", HashKey: "K"})
	const accounts = 6
	const total = accounts * 100
	for i := 0; i < accounts; i++ {
		if err := s.Put("acct", Item{"K": S(fmt.Sprintf("a%d", i)), "Bal": NInt(100)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				from := fmt.Sprintf("a%d", (w+i)%accounts)
				to := fmt.Sprintf("a%d", (w+i+1)%accounts)
				err := s.TransactWrite([]TxOp{
					{Table: "acct", Key: HK(S(from)), Cond: Ge(A("Bal"), NInt(1)),
						Updates: []Update{Add(A("Bal"), -1)}},
					{Table: "acct", Key: HK(S(to)),
						Updates: []Update{Add(A("Bal"), 1)}},
				})
				if err != nil && !errors.Is(err, ErrConditionFailed) {
					t.Error(err)
					return
				}
				// Interleave a batched single-row write on the same table.
				if err := s.Update("acct", HK(S("scratch")), nil, Add(A("N"), 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rows, err := s.Scan("acct", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sum := int64(0)
	for _, r := range rows {
		if r["K"].Str() == "scratch" {
			continue
		}
		sum += r["Bal"].Int()
	}
	if sum != total {
		t.Errorf("balance sum = %d, want %d", sum, total)
	}
}
