package walstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/storage/codec"
)

// Fuzz targets for the two decode boundaries a crash hands arbitrary bytes
// to: the record envelope over the shared codec (decodeRecord parses
// whatever survived inside a CRC-valid frame) and the segment scanner
// (scanSegment walks whatever the file system kept of a segment file); the
// codec under both has its own target, codec.FuzzDecode. The seed corpus is
// real store traffic plus the crash matrix's damage shapes — torn tails at
// the header and body boundaries, and a flipped byte. CI runs a short -fuzz
// smoke on both (see .github/workflows/ci.yml); locally:
//
//	go test ./internal/walstore -run '^$' -fuzz FuzzSegmentRecovery -fuzztime 30s

// fuzzSegmentBytes produces genuine on-disk segment bytes covering every
// record type and op kind: table creates, puts, conditional updates, a
// delete, and a table drop.
func fuzzSegmentBytes(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.CreateTable(usersSchema()); err != nil {
		f.Fatal(err)
	}
	if err := s.CreateTable(dynamo.Schema{Name: "tmp", HashKey: "K"}); err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := s.Put("users", dynamo.Item{
			"Id": dynamo.S("u1"), "Rev": dynamo.NInt(i), "N": dynamo.NInt(10 * i),
			"Team": dynamo.S("t"), "Rank": dynamo.NInt(i),
		}, nil); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Update("users", dynamo.HSK(dynamo.S("u1"), dynamo.NInt(0)), nil,
		dynamo.Set(dynamo.A("N"), dynamo.NInt(99)), dynamo.Add(dynamo.A("Rank"), 2)); err != nil {
		f.Fatal(err)
	}
	if err := s.Delete("users", dynamo.HSK(dynamo.S("u1"), dynamo.NInt(1)), nil); err != nil {
		f.Fatal(err)
	}
	if err := s.DeleteTable("tmp"); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzRecordFraming throws arbitrary bytes at the record envelope and the
// shared codec under it. decodeRecord must never panic, and any body it
// accepts must canonicalize: re-encoding the decoded record yields a frame
// that decodes back to the byte-identical frame (one round normalizes
// non-minimal varints and map key order; after that the encoding is a fixed
// point — the property that makes a replayed log byte-comparable across runs).
func FuzzRecordFraming(f *testing.F) {
	seg := fuzzSegmentBytes(f)
	for off := 0; off < len(seg); {
		body, next, err := codec.NextFrame(seg, off)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), body...))
		off = next
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, recCommit})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := decodeRecord(body)
		if err != nil {
			return // rejected input; the only obligation is not panicking
		}
		frame, err := encodeRecord(codec.NewEncoder(64), rec)
		if err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
		canon := frame[codec.FrameHeaderLen:]
		rec2, err := decodeRecord(canon)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\nbody: %x", err, canon)
		}
		if frame2, _ := encodeRecord(codec.NewEncoder(64), rec2); !bytes.Equal(frame, frame2) {
			t.Fatalf("encoding is not a fixed point:\n first: %x\nsecond: %x", frame, frame2)
		}
	})
}

// FuzzSegmentRecovery throws arbitrary segment files at the recovery
// scanner. scanSegment must never panic, must apply records in exact
// sequence order from the expected start, must report a valid end offset
// within the file, and its durable prefix must be stable: truncating the
// file at the reported tear and rescanning yields the same records with no
// corruption — the invariant Open's crash repair relies on.
func FuzzSegmentRecovery(f *testing.F) {
	seg := fuzzSegmentBytes(f)
	f.Add(seg)
	for _, cut := range []int{1, codec.FrameHeaderLen - 1, codec.FrameHeaderLen, codec.FrameHeaderLen + 3, len(seg) - 1} {
		if cut > 0 && cut < len(seg) {
			f.Add(append([]byte(nil), seg[:cut]...))
		}
	}
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var seqs []uint64
		validEnd, lastSeq, corrupt, err := scanSegment(data, 1, 0, func(r record) error {
			seqs = append(seqs, r.seq)
			return nil
		})
		if err != nil {
			t.Fatalf("scan failed outside the corruption channel: %v", err)
		}
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("valid end %d outside file of %d bytes", validEnd, len(data))
		}
		for i, s := range seqs {
			if s != uint64(i)+1 {
				t.Fatalf("applied sequence %d at position %d; records must apply in order", s, i)
			}
		}
		if lastSeq != uint64(len(seqs)) {
			t.Fatalf("last sequence %d after %d applied records", lastSeq, len(seqs))
		}
		end2, last2, corrupt2, err2 := scanSegment(data[:validEnd], 1, 0, nil)
		if err2 != nil || corrupt2 != nil || end2 != validEnd || last2 != lastSeq {
			t.Fatalf("durable prefix not stable after truncation at %d: end=%d seq=%d→%d corrupt=%v err=%v (first scan corrupt=%v)",
				validEnd, end2, lastSeq, last2, corrupt2, err2, corrupt)
		}
	})
}
