package walstore

import (
	"fmt"
	"path/filepath"
)

// Fsck audits a store directory offline: every snapshot present must decode
// (CRC included), every WAL segment must contain only whole, CRC-valid,
// sequence-continuous records, and replaying the tail over the newest
// snapshot must succeed. A nil error means the directory recovers
// losslessly — the state Open leaves behind after repairing a torn tail.
// Run it on a closed (or quiescent) directory.
func Fsck(dir string) error {
	snapNames, _, err := listSeqFiles(OS, dir, snapPrefix, snapSuffix)
	if err != nil {
		return fmt.Errorf("walstore: fsck %s: %w", dir, err)
	}
	// Snapshots are written via fsync+rename, so every one that made it to
	// its final name must be readable; a corrupt one is a durability bug.
	for _, name := range snapNames {
		data, err := OS.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("walstore: fsck %s: %w", dir, err)
		}
		if _, _, _, err := decodeSnapshot(data); err != nil {
			return fmt.Errorf("walstore: fsck %s: snapshot %s: %w", dir, name, err)
		}
	}

	snapSeq, schemas, mem, _, err := loadNewestSnapshot(OS, dir)
	if err != nil {
		return fmt.Errorf("walstore: fsck %s: %w", dir, err)
	}
	replayer := &Store{mem: mem, schemas: schemas}

	segNames, segSeqs, err := listSeqFiles(OS, dir, segPrefix, segSuffix)
	if err != nil {
		return fmt.Errorf("walstore: fsck %s: %w", dir, err)
	}
	lastSeq := snapSeq
	for i, name := range segNames {
		first := segSeqs[i]
		covered := i+1 < len(segNames) && segSeqs[i+1] <= snapSeq+1
		if !covered && first > lastSeq+1 && first > snapSeq+1 {
			return fmt.Errorf("walstore: fsck %s: missing segment before %s (have seq %d)", dir, name, lastSeq)
		}
		apply := func(r record) error { return replayer.applyRecord(r) }
		if covered {
			apply = nil // validated, but predates the snapshot
		}
		data, err := OS.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("walstore: fsck %s: %w", dir, err)
		}
		_, segLast, corrupt, err := scanSegment(data, first, snapSeq, apply)
		if err != nil {
			return fmt.Errorf("walstore: fsck %s: %w", dir, err)
		}
		if corrupt != nil {
			return fmt.Errorf("walstore: fsck %s: segment %s: %v", dir, name, corrupt)
		}
		if !covered && segLast > lastSeq {
			lastSeq = segLast
		}
	}
	return nil
}
