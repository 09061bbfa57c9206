package walstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/storage/codec"
)

// This file is the crash matrix: deterministic damage — torn tails,
// truncated segments, flipped bytes, injected mid-write deaths — at chosen
// WAL offsets, each followed by the same assertion: Open recovers exactly
// the durable prefix, the directory repairs to a state Fsck accepts, and
// the store keeps working.

// flipByteAt XORs one byte of the file; negative offsets count from the end.
func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	if off < 0 || off >= int64(len(data)) {
		t.Fatalf("flip offset %d out of range (%d bytes)", off, len(data))
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateTo shortens the file; negative n trims from the end.
func truncateTo(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if n < 0 {
		n += fi.Size()
	}
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

// seedCounters opens a store in dir and commits n counter increments on
// key "k" (plus the table create), returning the per-record frame size so
// tests can aim damage at exact record boundaries.
func seedCounters(t *testing.T, dir string, n int) (frameLen int64) {
	t.Helper()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(dynamo.Schema{Name: "c", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	before := s.WAL().BytesAppended.Load()
	if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
		t.Fatal(err)
	}
	frameLen = s.WAL().BytesAppended.Load() - before
	for i := 1; i < n; i++ {
		if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return frameLen
}

// counterValue reads back the counter in a freshly opened store.
func counterValue(t *testing.T, s *Store) int64 {
	t.Helper()
	it, ok, err := s.Get("c", dynamo.HK(dynamo.S("k")))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0
	}
	return it["N"].Int()
}

// tailSegment returns the single segment file of dir.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, err := listSeqFiles(OS, dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}
	return filepath.Join(dir, segs[len(segs)-1])
}

// assertRecovered reopens dir, asserting the counter holds want and that the
// repaired directory is Fsck-clean and still writable.
func assertRecovered(t *testing.T, dir string, want int64) {
	t.Helper()
	s := openT(t, dir, Options{})
	if got := counterValue(t, s); got != want {
		t.Errorf("recovered counter = %d, want %d", got, want)
	}
	// The repaired log must accept new commits and stay consistent.
	if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Fsck(dir); err != nil {
		t.Errorf("fsck after repair: %v", err)
	}
	s = openT(t, dir, Options{})
	if got := counterValue(t, s); got != want+1 {
		t.Errorf("counter after post-recovery write = %d, want %d", got, want+1)
	}
	s.Close()
}

// TestCrashMatrixTornTail cuts the last record at every possible byte
// boundary: mid-header, mid-body, one byte short. Each cut loses exactly
// the torn record and nothing else.
func TestCrashMatrixTornTail(t *testing.T) {
	for _, cut := range []int64{1, codec.FrameHeaderLen - 1, codec.FrameHeaderLen, codec.FrameHeaderLen + 3, -1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			frameLen := seedCounters(t, dir, 10)
			seg := tailSegment(t, dir)
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			lastStart := fi.Size() - frameLen
			off := lastStart + cut
			if cut < 0 {
				off = fi.Size() + cut
			}
			truncateTo(t, seg, off)
			assertRecovered(t, dir, 9) // the 10th increment is torn off
		})
	}
}

// TestCrashMatrixTruncatedSegment chops whole records off the tail: the
// durable prefix shrinks by exactly that many commits.
func TestCrashMatrixTruncatedSegment(t *testing.T) {
	for _, lost := range []int64{1, 3, 7} {
		t.Run(fmt.Sprintf("lost=%d", lost), func(t *testing.T) {
			dir := t.TempDir()
			frameLen := seedCounters(t, dir, 10)
			truncateTo(t, tailSegment(t, dir), -lost*frameLen)
			assertRecovered(t, dir, 10-lost)
		})
	}
}

// TestCrashMatrixBadCRC flips one byte inside a record body at a chosen
// depth from the tail: replay stops at the flipped record.
func TestCrashMatrixBadCRC(t *testing.T) {
	for _, depth := range []int64{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			dir := t.TempDir()
			frameLen := seedCounters(t, dir, 10)
			// Flip a byte in the body of the record `depth` from the end.
			flipByteAt(t, tailSegment(t, dir), -(depth-1)*frameLen-frameLen+codec.FrameHeaderLen+2)
			assertRecovered(t, dir, 10-depth)
		})
	}
}

// TestCrashMatrixDeepNesting appends a record that is whole and CRC-valid
// but whose one value nests 4 Mi levels deep — hand-built, 8 MiB; nothing
// the store writes looks like it, a disk that rots into it is the point.
// Replay used to recurse once per level until the runtime killed the
// process with "fatal error: stack overflow"; now the record is reported as
// corruption and truncated like a bad CRC.
func TestCrashMatrixDeepNesting(t *testing.T) {
	dir := t.TempDir()
	seedCounters(t, dir, 10) // seq 1 creates the table, 2..11 count
	e := codec.NewEncoder(64)
	e.U64(12)
	e.U8(recCommit)
	e.Int(1) // one op
	e.U8(opPut)
	e.Str("c")
	e.Int(1) // one attribute
	e.Str("K")
	e.Raw(strings.Repeat(string([]byte{byte(dynamo.KindList), 1}), 4<<20))
	e.U8(byte(dynamo.KindNull))
	seg, err := os.OpenFile(tailSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(e.Frame()); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Fsck(dir); err == nil || !strings.Contains(err.Error(), "undecodable record") {
		t.Errorf("fsck of the damaged log = %v, want an undecodable record", err)
	}
	assertRecovered(t, dir, 10)
}

// TestCrashMatrixHeaderCorruption flips a length byte: the frame no longer
// parses and everything from it on is discarded.
func TestCrashMatrixHeaderCorruption(t *testing.T) {
	dir := t.TempDir()
	frameLen := seedCounters(t, dir, 6)
	flipByteAt(t, tailSegment(t, dir), -3*frameLen) // length field of the 3rd-from-last record
	assertRecovered(t, dir, 3)
}

// TestCrashMatrixInjectedTornWrite uses a fault file system to kill the
// store mid-append at a deterministic sequence, writing only half the
// frame — the in-process version of a process dying inside write(2).
func TestCrashMatrixInjectedTornWrite(t *testing.T) {
	dir := t.TempDir()
	const tornSeq = 8 // the 8th write is record 8: no snapshot is written
	writes, cut := 0, 0
	s := openT(t, dir, Options{FS: &faultFS{FS: OS,
		write: func(_ string, p []byte) ([]byte, error) {
			if writes++; writes != tornSeq {
				return p, nil
			}
			cut = len(p) / 2
			return p[:cut], errors.New("torn write")
		},
	}})
	if err := s.CreateTable(dynamo.Schema{Name: "c", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	commits := int64(0)
	for i := 0; i < 10; i++ {
		if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
			lastErr = err
			break
		}
		commits++
	}
	if lastErr == nil {
		t.Fatal("torn write did not surface")
	}
	// The store is poisoned; later writes fail fast without touching disk.
	if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err == nil {
		t.Fatal("poisoned store accepted a write")
	}
	s.Close()
	s = openT(t, dir, Options{})
	if got := s.WAL().TruncatedBytes.Load(); got != int64(cut) {
		t.Errorf("TruncatedBytes = %d, want the %d bytes the torn write left", got, cut)
	}
	s.Close()
	// seq 1 is the table create, so increments 1..commits are durable.
	assertRecovered(t, dir, commits)
	if commits != int64(tornSeq)-2 {
		t.Errorf("commits before torn write = %d, want %d", commits, tornSeq-2)
	}
}

// TestCrashMatrixSnapshotSurvivesTornTail: damage behind a snapshot is
// irrelevant; damage after it loses only the tail.
func TestCrashMatrixSnapshotSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(dynamo.Schema{Name: "c", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	truncateTo(t, tailSegment(t, dir), -1) // tear the last tail record
	assertRecovered(t, dir, 13)
}

// TestCrashMatrixCorruptSnapshotFallsBack: a snapshot damaged on disk must
// not brick recovery — Open falls back to replaying the full log.
func TestCrashMatrixCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.CreateTable(dynamo.Schema{Name: "c", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Build a snapshot, then corrupt it. The pre-compaction segments are
	// gone, so this also exercises the "snapshot is the only copy" guard:
	// recovery uses the older (deleted) nothing and must fall back to the
	// surviving tail — which compaction started fresh, so the fallback is
	// an empty store plus the tail. To keep the full history, re-commit
	// after compaction instead.
	s = openT(t, dir, Options{})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	snaps, _, _ := listSeqFiles(OS, dir, snapPrefix, snapSuffix)
	if len(snaps) != 1 {
		t.Fatal("want one snapshot")
	}
	flipByteAt(t, filepath.Join(dir, snaps[0]), -1)
	// With the snapshot gone and the pre-snapshot segments compacted away,
	// the tail alone cannot rebuild state: Open must refuse rather than
	// silently lose data (the tail's first record is past seq 1 with no
	// base to apply it to).
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open silently recovered from a compacted log with a corrupt snapshot")
	}
	if err := Fsck(dir); err == nil {
		t.Error("fsck passed with a corrupt snapshot")
	}
}

// TestCrashMatrixHugeShardCount appends a create-table record that is whole
// and CRC-valid but whose schema asks for 1<<40 shards — hand-built; a disk
// that rots into it, or a log written by something else, is the point.
// Replay used to hand the count to dynamo's make([]*shard, n) and die with
// "fatal error: runtime: out of memory"; now the record does not decode and
// is reported and truncated like any other undecodable one.
func TestCrashMatrixHugeShardCount(t *testing.T) {
	dir := t.TempDir()
	seedCounters(t, dir, 10) // seq 1 creates the table, 2..11 count
	e := codec.NewEncoder(64)
	e.U64(12)
	e.U8(recCreateTable)
	e.Str("huge")
	e.Str("K")
	e.Str("")
	e.Int(0)
	e.Uvarint(1 << 40) // shards
	e.Int(0)
	seg, err := os.OpenFile(tailSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(e.Frame()); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Fsck(dir); err == nil || !strings.Contains(err.Error(), "undecodable record") {
		t.Errorf("fsck of the damaged log = %v, want an undecodable record", err)
	}
	assertRecovered(t, dir, 10)
}

// TestCrashMatrixWriteMustNotRetainTheFrame pins the rule in File.Write's
// doc. The frame a File is handed is the store's one record buffer: a File
// that keeps it — as a fault injector that replays an old record later
// might — finds the next record's bytes in it, so what it kept no longer
// frames the record it saw. A File that copies is unaffected.
func TestCrashMatrixWriteMustNotRetainTheFrame(t *testing.T) {
	var kept, copied []byte
	writes := 0
	s := openT(t, t.TempDir(), Options{FS: &faultFS{FS: OS,
		write: func(_ string, p []byte) ([]byte, error) {
			if writes++; writes == 2 {
				kept, copied = p, append([]byte(nil), p...)
			}
			return p, nil
		},
	}})
	defer s.Close()
	if err := s.CreateTable(dynamo.Schema{Name: "c", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Update("c", dynamo.HK(dynamo.S("k")), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
			t.Fatal(err)
		}
	}
	seqOf := func(frame []byte) uint64 {
		body, _, err := codec.NextFrame(frame, 0)
		if err != nil {
			return 0
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return 0
		}
		return rec.seq
	}
	if got := seqOf(copied); got != 2 {
		t.Fatalf("the copied frame holds record %d, want 2", got)
	}
	if got := seqOf(kept); got == 2 {
		t.Error("a retained frame still held its record two appends later: the record buffer is no longer reused, so the doc rule (and this test) can go")
	}
}
