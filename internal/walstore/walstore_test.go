package walstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/storage/codec"
)

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

func usersSchema() dynamo.Schema {
	return dynamo.Schema{
		Name: "users", HashKey: "Id", SortKey: "Rev",
		Indexes: []dynamo.IndexSchema{{Name: "by-team", HashKey: "Team", SortKey: "Rank"}},
	}
}

func putUser(t *testing.T, s *Store, id string, rev, n int64) {
	t.Helper()
	err := s.Put("users", dynamo.Item{
		"Id": dynamo.S(id), "Rev": dynamo.NInt(rev), "N": dynamo.NInt(n),
	}, nil)
	if err != nil {
		t.Fatalf("put %s/%d: %v", id, rev, err)
	}
}

// TestRestartRecoversEverything drops all in-memory state and reopens the
// directory: every committed mutation — puts, conditional updates, deletes,
// a transaction, a table deletion — must come back.
func TestRestartRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(dynamo.Schema{Name: "tmp", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	putUser(t, s, "alice", 1, 10)
	putUser(t, s, "alice", 2, 20)
	putUser(t, s, "bob", 1, 1)
	if err := s.Update("users", dynamo.HSK(dynamo.S("bob"), dynamo.NInt(1)), nil,
		dynamo.Add(dynamo.A("N"), 5), dynamo.Set(dynamo.A("Team"), dynamo.S("blue")), dynamo.Set(dynamo.A("Rank"), dynamo.NInt(3))); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("users", dynamo.HSK(dynamo.S("alice"), dynamo.NInt(1)), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.TransactWrite([]dynamo.TxOp{
		{Table: "users", Put: dynamo.Item{"Id": dynamo.S("carol"), "Rev": dynamo.NInt(1), "Team": dynamo.S("blue"), "Rank": dynamo.NInt(1)}},
		{Table: "users", Key: dynamo.HSK(dynamo.S("bob"), dynamo.NInt(1)), Updates: []dynamo.Update{dynamo.Add(dynamo.A("N"), 100)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteTable("tmp"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	defer r.Close()
	if got := r.TableNames(); len(got) != 1 || got[0] != "users" {
		t.Fatalf("tables after restart: %v", got)
	}
	it, ok, err := r.Get("users", dynamo.HSK(dynamo.S("bob"), dynamo.NInt(1)))
	if err != nil || !ok {
		t.Fatalf("bob: %v %v", ok, err)
	}
	if n := it["N"].Int(); n != 106 {
		t.Errorf("bob N = %d, want 106", n)
	}
	if _, ok, _ := r.Get("users", dynamo.HSK(dynamo.S("alice"), dynamo.NInt(1))); ok {
		t.Error("deleted alice/1 resurfaced")
	}
	if it, ok, _ := r.Get("users", dynamo.HSK(dynamo.S("alice"), dynamo.NInt(2))); !ok || it["N"].Int() != 20 {
		t.Errorf("alice/2 = %v (ok=%v)", it, ok)
	}
	// The secondary index survives with its ordering.
	rows, err := r.QueryIndex("users", "by-team", dynamo.S("blue"), dynamo.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["Id"].Str() != "carol" || rows[1]["Id"].Str() != "bob" {
		t.Errorf("by-team query after restart: %v", rows)
	}
	if n := r.WAL().RecoveredRecords.Load(); n == 0 {
		t.Error("no records replayed on reopen")
	}
	if err := Fsck(dir); err != nil {
		t.Errorf("fsck: %v", err)
	}
}

// TestConditionFailuresAreNotJournaled: a failed conditional write must
// leave no WAL record, and recovery must not replay it.
func TestConditionFailuresAreNotJournaled(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", dynamo.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)}, nil); err != nil {
		t.Fatal(err)
	}
	before := s.WAL().Records.Load()
	err := s.Put("t", dynamo.Item{"K": dynamo.S("a"), "V": dynamo.NInt(2)},
		dynamo.Eq(dynamo.A("V"), dynamo.NInt(99)))
	if !errors.Is(err, dynamo.ErrConditionFailed) {
		t.Fatalf("want ErrConditionFailed, got %v", err)
	}
	if got := s.WAL().Records.Load(); got != before {
		t.Errorf("condition failure appended %d records", got-before)
	}
	s.Close()

	r := openT(t, dir, Options{})
	defer r.Close()
	it, _, _ := r.Get("t", dynamo.HK(dynamo.S("a")))
	if it["V"].Int() != 1 {
		t.Errorf("V = %v after restart, want 1", it["V"])
	}
}

// TestSnapshotCompaction: compaction must shrink the log to one segment and
// one snapshot, and a store reopened from the compacted directory (and from
// a snapshot plus later tail records) must be identical.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 512})
	if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put("t", dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%02d", i)), "V": dynamo.NInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.WAL().Segments.Load() == 0 {
		t.Fatal("expected segment rotations with 512-byte segments")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, _, _ := listSeqFiles(OS, dir, segPrefix, segSuffix)
	snaps, _, _ := listSeqFiles(OS, dir, snapPrefix, snapSuffix)
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after compaction: %d segments, %d snapshots", len(segs), len(snaps))
	}
	// Tail records after the snapshot.
	for i := 0; i < 5; i++ {
		if err := s.Put("t", dynamo.Item{"K": dynamo.S(fmt.Sprintf("post%d", i)), "V": dynamo.NInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	if err := Fsck(dir); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	r := openT(t, dir, Options{})
	defer r.Close()
	n, err := r.TableItemCount("t")
	if err != nil || n != 55 {
		t.Fatalf("items after snapshot+tail restart = %d (%v), want 55", n, err)
	}
	if got := r.WAL().RecoveredRecords.Load(); got != 5 {
		t.Errorf("replayed %d records, want 5 (snapshot should cover the rest)", got)
	}
}

// TestAutoCompaction: crossing the byte threshold must snapshot + truncate
// the log without an explicit Compact call.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{AutoCompactBytes: 2048})
	defer s.Close()
	if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Put("t", dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%03d", i%10)), "V": dynamo.NInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.WAL().Snapshots.Load() == 0 {
		t.Error("no auto-compaction despite 2 KiB threshold")
	}
}

// TestGroupCommitBatchesFsyncs: concurrent committers must share fsyncs on
// the batched path; with SyncEach every record pays its own.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	const writers, rounds = 16, 8
	run := func(t *testing.T, policy SyncPolicy) *Store {
		t.Helper()
		s := openT(t, t.TempDir(), Options{Sync: policy})
		t.Cleanup(func() { s.Close() })
		if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					key := fmt.Sprintf("k%02d", w)
					if err := s.Update("t", dynamo.HK(dynamo.S(key)), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < writers; w++ {
			it, ok, err := s.Get("t", dynamo.HK(dynamo.S(fmt.Sprintf("k%02d", w))))
			if err != nil || !ok || it["N"].Int() != rounds {
				t.Errorf("k%02d = %v (ok=%v err=%v), want %d", w, it, ok, err, rounds)
			}
		}
		return s
	}

	batched := run(t, SyncBatched)
	each := run(t, SyncEach)
	// writers*rounds records committed in each store (+1 create table).
	if f := each.WAL().Fsyncs.Load(); f < writers*rounds {
		t.Errorf("SyncEach fsyncs = %d, want ≥ %d", f, writers*rounds)
	}
	bf, br := batched.WAL().SyncBatches.Load(), batched.WAL().BatchedRecords.Load()
	if bf == 0 || br == 0 {
		t.Fatalf("batched path unused: batches=%d records=%d", bf, br)
	}
	if mean := float64(br) / float64(bf); mean <= 1.0 && bf >= writers*rounds {
		t.Errorf("no fsync amortization: %d batches for %d records", bf, br)
	}
}

// TestWriteFailurePoisonsStore: an injected fsync failure must surface and
// every later mutation must fail fast.
func TestWriteFailurePoisonsStore(t *testing.T) {
	boom := errors.New("disk on fire")
	armed := false
	s := openT(t, t.TempDir(), Options{FS: &faultFS{FS: OS, sync: func(string) error {
		if armed {
			return boom
		}
		return nil
	}}})
	defer s.Close()
	if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := s.Put("t", dynamo.Item{"K": dynamo.S("a")}, nil); !errors.Is(err, boom) {
		t.Fatalf("want injected sync error, got %v", err)
	}
	armed = false
	if err := s.Put("t", dynamo.Item{"K": dynamo.S("b")}, nil); !errors.Is(err, boom) {
		t.Fatalf("store not poisoned: %v", err)
	}
	// Reads fail too: the memtable applied the "failed" write, so serving
	// it would hand out rows that are lost on the next Open.
	if _, _, err := s.Get("t", dynamo.HK(dynamo.S("a"))); !errors.Is(err, boom) {
		t.Fatalf("poisoned store served a read: %v", err)
	}
	if _, err := s.Scan("t", dynamo.QueryOpts{}); !errors.Is(err, boom) {
		t.Fatalf("poisoned store served a scan: %v", err)
	}
}

// TestDirSyncFailurePoisonsStore: a directory fsync that fails after a
// rotation or a snapshot leaves a file whose name may not survive a crash,
// so the write that needed it fails and so does everything after it; one
// that fails while opening fails Open.
func TestDirSyncFailurePoisonsStore(t *testing.T) {
	boom := errors.New("directory entry not durable")
	open := func(t *testing.T, armed *bool) (*Store, string) {
		dir := t.TempDir()
		s := openT(t, dir, Options{SegmentBytes: 256, Sync: SyncNone, AutoCompactBytes: -1, FS: &faultFS{FS: OS,
			syncDir: func(string) error {
				if *armed {
					return boom
				}
				return nil
			},
		}})
		t.Cleanup(func() { s.Close() })
		if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
			t.Fatal(err)
		}
		*armed = true
		return s, dir
	}
	poisoned := func(t *testing.T, s *Store) {
		t.Helper()
		if err := s.Put("t", dynamo.Item{"K": dynamo.S("later")}, nil); !errors.Is(err, boom) {
			t.Errorf("a write after the failed directory sync: %v", err)
		}
		if _, _, err := s.Get("t", dynamo.HK(dynamo.S("later"))); !errors.Is(err, boom) {
			t.Errorf("a read after the failed directory sync: %v", err)
		}
	}

	t.Run("rotate", func(t *testing.T) {
		var armed bool
		s, _ := open(t, &armed)
		var err error
		for i := 0; i < 64 && err == nil; i++ {
			err = s.Put("t", dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%02d", i)), "Pad": dynamo.S("0123456789abcdef")}, nil)
		}
		if !errors.Is(err, boom) || s.WAL().Segments.Load() == 0 {
			t.Fatalf("writes across a 256-byte segment: %v after %d rotations, want the injected error", err, s.WAL().Segments.Load())
		}
		poisoned(t, s)
	})
	t.Run("snapshot", func(t *testing.T) {
		var armed bool
		s, _ := open(t, &armed)
		if err := s.Compact(); !errors.Is(err, boom) {
			t.Fatalf("Compact = %v, want the injected error", err)
		}
		poisoned(t, s)
	})
	t.Run("open", func(t *testing.T) {
		var armed bool
		s, dir := open(t, &armed)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, s.opts); !errors.Is(err, boom) {
			t.Fatalf("Open = %v, want the injected error", err)
		}
	})
}

// TestSnapshotFailurePoisonsStore: a snapshot whose temp file cannot be
// written, or cannot be renamed into place, fails Compact and poisons the
// store, and leaves no temp file behind.
func TestSnapshotFailurePoisonsStore(t *testing.T) {
	boom := errors.New("snapshot not written")
	for name, fsys := range map[string]*faultFS{
		"write": {FS: OS, write: func(name string, p []byte) ([]byte, error) {
			if strings.HasSuffix(name, tmpSuffix) {
				return p[:len(p)/2], boom
			}
			return p, nil
		}},
		"rename": {FS: OS, rename: func(string, string) error { return boom }},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, Options{FS: fsys})
			defer s.Close()
			if err := s.CreateTable(usersSchema()); err != nil {
				t.Fatal(err)
			}
			putUser(t, s, "a", 1, 1)
			if err := s.Compact(); !errors.Is(err, boom) {
				t.Fatalf("Compact = %v, want the injected error", err)
			}
			if err := s.Put("users", dynamo.Item{"Id": dynamo.S("b"), "Rev": dynamo.NInt(1)}, nil); !errors.Is(err, boom) {
				t.Errorf("a write after the failed snapshot: %v", err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), snapPrefix) {
					t.Errorf("the failed snapshot left %s behind", e.Name())
				}
			}
		})
	}
}

// TestOpenRemovesSnapshotTemps: a crash between creating a snapshot's temp
// file and renaming it leaves the temp file behind; the next Open removes
// it, under its fixed name and under the random names older directories
// hold.
func TestOpenRemovesSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	putUser(t, s, "a", 1, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	leftovers := []string{snapName(2) + tmpSuffix, "snap-2906331087.tmp"}
	for _, name := range leftovers {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s = openT(t, dir, Options{})
	defer s.Close()
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s after Open: %v, want it removed", name, err)
		}
	}
	if it, ok, err := s.Get("users", dynamo.HSK(dynamo.S("a"), dynamo.NInt(1))); err != nil || !ok || it["N"].Int() != 7 {
		t.Errorf("the row after Open: %v %v %v", it, ok, err)
	}
}

// TestCodecRoundTrip pins the record envelope: every record type and op
// kind must survive encode/decode byte-identically. (What is inside the
// envelope — every value kind, schemas, update actions — is pinned by
// internal/storage/codec's own round-trip table and format fixtures.)
func TestCodecRoundTrip(t *testing.T) {
	recs := []record{
		{seq: 1, typ: recCreateTable, schema: usersSchema()},
		{seq: 2, typ: recDeleteTable, name: "users"},
		{seq: 3, typ: recCommit, ops: []dynamo.TxOp{
			{Table: "t", Put: dynamo.Item{"S": dynamo.S("str"), "L": dynamo.L(dynamo.S("a"), dynamo.NInt(1))}},
			{Table: "t", Key: dynamo.HSK(dynamo.S("h"), dynamo.NInt(7)), Delete: true},
			{Table: "t", Key: dynamo.HK(dynamo.S("k")), Updates: []dynamo.Update{
				dynamo.Set(dynamo.AK("A", "m"), dynamo.S("v")), dynamo.Add(dynamo.A("C"), -2.5), dynamo.Remove(dynamo.A("R")),
			}},
		}},
	}
	for _, want := range recs {
		frame, err := encodeRecord(codec.NewEncoder(64), want)
		if err != nil {
			t.Fatalf("encode seq %d: %v", want.seq, err)
		}
		got, err := decodeRecord(frame[codec.FrameHeaderLen:])
		if err != nil {
			t.Fatalf("decode seq %d: %v", want.seq, err)
		}
		if got.seq != want.seq || got.typ != want.typ || len(got.ops) != len(want.ops) {
			t.Errorf("seq %d: decoded envelope %+v", want.seq, got)
		}
		// Re-encoding the decoded record must reproduce the frame exactly
		// (deterministic encoding).
		if re, _ := encodeRecord(codec.NewEncoder(64), got); string(re) != string(frame) {
			t.Errorf("seq %d: re-encoded frame differs", want.seq)
		}
	}
	// A Check op writes nothing, and a commit record leaves it out.
	commit := recs[2]
	checked := commit
	checked.ops = append([]dynamo.TxOp{{Table: "t", Key: dynamo.HK(dynamo.S("k")), Cond: dynamo.Exists(dynamo.A("K")), Check: true}}, commit.ops...)
	plain, _ := encodeRecord(codec.NewEncoder(64), commit)
	if withCheck, _ := encodeRecord(codec.NewEncoder(64), checked); string(withCheck) != string(plain) {
		t.Error("a commit record holding a Check op differs from one without it")
	}
	// A body with bytes after its last field is refused, as is an unknown
	// record type or op kind.
	frame, _ := encodeRecord(codec.NewEncoder(64), recs[1])
	for name, body := range map[string][]byte{
		"trailing byte":  append(frame[codec.FrameHeaderLen:], 0),
		"unknown type":   {1, 0, 0, 0, 0, 0, 0, 0, 9},
		"unknown op":     {1, 0, 0, 0, 0, 0, 0, 0, recCommit, 1, 9, 1, 't'},
		"truncated body": frame[codec.FrameHeaderLen : len(frame)-1],
	} {
		if _, err := decodeRecord(body); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

// TestReopenAppendsToTail: reopening must continue the sequence in the same
// tail segment rather than starting a new log.
func TestReopenAppendsToTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	putN := func(s *Store, k string) {
		if err := s.Put("t", dynamo.Item{"K": dynamo.S(k)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	putN(s, "a")
	s.Close()
	s = openT(t, dir, Options{})
	putN(s, "b")
	s.Close()
	s = openT(t, dir, Options{})
	defer s.Close()
	if n, _ := s.TableItemCount("t"); n != 2 {
		t.Fatalf("items = %d, want 2", n)
	}
	segs, _, _ := listSeqFiles(OS, dir, segPrefix, segSuffix)
	if len(segs) != 1 {
		t.Errorf("segments = %v, want a single tail", segs)
	}
	if err := Fsck(dir); err != nil {
		t.Errorf("fsck: %v", err)
	}
}

// TestFsckDetectsCorruption: Fsck must flag a flipped byte that Open would
// repair away.
func TestFsckDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put("t", dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%d", i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _, _ := listSeqFiles(OS, dir, segPrefix, segSuffix)
	if len(segs) != 1 {
		t.Fatal("want one segment")
	}
	path := filepath.Join(dir, segs[0])
	flipByteAt(t, path, -10) // inside the last record's body
	if err := Fsck(dir); err == nil {
		t.Fatal("fsck passed on a corrupt segment")
	}
}

// TestRotationUnderConcurrentCommit: segment rotation must not race the
// durability fsync path. With tiny segments and concurrent committers,
// rotation constantly closes and swaps the tail handle while waiters
// flush it; every commit must still succeed and the log must recover.
// (Regression: rotate used to close the file a concurrent waiter was
// fsyncing, poisoning the store with "file already closed".)
func TestRotationUnderConcurrentCommit(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncBatched, SyncEach} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, Options{SegmentBytes: 256, Sync: policy})
			if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
				t.Fatal(err)
			}
			const writers, rounds = 8, 25
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					key := fmt.Sprintf("k%02d", w)
					for i := 0; i < rounds; i++ {
						if err := s.Update("t", dynamo.HK(dynamo.S(key)), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
							t.Errorf("writer %d round %d: %v", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if s.WAL().Segments.Load() == 0 {
				t.Fatal("no rotations; the test exercised nothing")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := Fsck(dir); err != nil {
				t.Fatalf("fsck: %v", err)
			}
			r := openT(t, dir, Options{})
			defer r.Close()
			for w := 0; w < writers; w++ {
				it, ok, err := r.Get("t", dynamo.HK(dynamo.S(fmt.Sprintf("k%02d", w))))
				if err != nil || !ok || it["N"].Int() != rounds {
					t.Errorf("recovered k%02d = %v (ok=%v err=%v), want %d", w, it, ok, err, rounds)
				}
			}
		})
	}
}

// TestCompactIsIdempotent: repeated Compact calls with no commits in
// between — and a Compact right after reopening an already-compacted
// directory — must be no-ops, not collide with the existing tail segment.
func TestCompactIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(dynamo.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", dynamo.Item{"K": dynamo.S("a")}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Compact(); err != nil {
			t.Fatalf("compact #%d: %v", i+1, err)
		}
	}
	// The store must still accept writes after back-to-back compactions.
	if err := s.Put("t", dynamo.Item{"K": dynamo.S("b")}, nil); err != nil {
		t.Fatalf("write after repeated compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the compacted directory and compact again before any write.
	s = openT(t, dir, Options{})
	if err := s.Compact(); err != nil {
		t.Fatalf("compact after reopen: %v", err)
	}
	if err := s.Put("t", dynamo.Item{"K": dynamo.S("c")}, nil); err != nil {
		t.Fatalf("write after reopen-compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Fsck(dir); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	r := openT(t, dir, Options{})
	defer r.Close()
	if n, _ := r.TableItemCount("t"); n != 3 {
		t.Errorf("items = %d, want 3", n)
	}
}
