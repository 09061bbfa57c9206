package walstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dynamo"
	"repro/internal/storage/codec"
)

// A snapshot is a compacted image of the whole store at one log position:
//
//	[u64 covered seq][count]([Schema][Items])…[u32 crc32c of everything before it]
//
// one Schema and its rows (in the store's deterministic scan order) per
// table; the encoding inside the envelope is internal/storage/codec's.
// Snapshots are written to a temp file, fsynced, and renamed into place, so
// a crash mid-snapshot leaves the previous snapshot authoritative; after a
// successful snapshot the log is rotated and every older segment and
// snapshot is deleted (compaction).

// encodeSnapshot serializes the snapshot image of mem at seq.
func encodeSnapshot(seq uint64, schemas map[string]dynamo.Schema, mem *dynamo.Store) ([]byte, error) {
	e := codec.NewEncoder(4096)
	e.U64(seq)
	names := mem.TableNames()
	e.Int(len(names))
	for _, name := range names {
		sch, ok := schemas[name]
		if !ok {
			return nil, fmt.Errorf("walstore: snapshot: no recorded schema for table %s", name)
		}
		e.Schema(sch)
		rows, err := mem.Scan(name, dynamo.QueryOpts{})
		if err != nil {
			return nil, err
		}
		e.Items(rows)
	}
	return e.Sealed(), nil
}

// decodeSnapshot parses a snapshot image, returning the covered sequence,
// the table schemas, and a freshly loaded in-memory store.
func decodeSnapshot(data []byte) (uint64, map[string]dynamo.Schema, *dynamo.Store, error) {
	body, err := codec.Unseal(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("walstore: snapshot %w", err)
	}
	d := codec.NewDecoder(body)
	seq := d.U64()
	ntables := d.Count()
	mem := dynamo.NewStore()
	schemas := make(map[string]dynamo.Schema, ntables)
	// A table is created, and a row loaded, only once it decoded whole.
	for i := 0; i < ntables; i++ {
		sch, nrows := d.Schema(), d.Count()
		if d.Err() != nil {
			break
		}
		if err := mem.CreateTable(sch); err != nil {
			return 0, nil, nil, err
		}
		schemas[sch.Name] = sch
		for r := 0; r < nrows; r++ {
			it := d.Item()
			if d.Err() != nil {
				break
			}
			if err := mem.Put(sch.Name, it, nil); err != nil {
				return 0, nil, nil, err
			}
		}
	}
	if err := d.Done(); err != nil {
		return 0, nil, nil, fmt.Errorf("walstore: snapshot: %w", err)
	}
	return seq, schemas, mem, nil
}

// writeSnapshotFile durably writes the snapshot image for seq into the
// store's directory. A crash before the rename leaves the temp file, which
// the next Open removes.
func (w *walWriter) writeSnapshotFile(seq uint64, data []byte) error {
	fsys := w.opts.FS
	name := filepath.Join(w.dir, snapName(seq))
	tmpName := name + tmpSuffix
	tmp, err := fsys.OpenFile(tmpName, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	if err := fsys.Rename(tmpName, name); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	return w.syncDir()
}

// removeSnapshotTemps removes the temp files of snapshots that never made it
// to their final name: snap-<seq>.snap.tmp, and the snap-<random>.tmp names
// of directories written before the name was fixed.
func removeSnapshotTemps(fsys FS, dir string) error {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, tmpSuffix) {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadNewestSnapshot finds the newest decodable snapshot in dir. A corrupt
// snapshot (crash mid-write that still got renamed, bit rot) falls back to
// the next-older one; with none valid, recovery starts from an empty store.
// It returns the covered seq (0 when none), schemas, store, and the name of
// the snapshot used ("" when none).
func loadNewestSnapshot(fsys FS, dir string) (uint64, map[string]dynamo.Schema, *dynamo.Store, string, error) {
	names, _, err := listSeqFiles(fsys, dir, snapPrefix, snapSuffix)
	if err != nil {
		return 0, nil, nil, "", err
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := fsys.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			return 0, nil, nil, "", err
		}
		seq, schemas, mem, err := decodeSnapshot(data)
		if err != nil {
			continue // fall back to an older snapshot
		}
		return seq, schemas, mem, names[i], nil
	}
	return 0, make(map[string]dynamo.Schema), dynamo.NewStore(), "", nil
}
