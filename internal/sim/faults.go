package sim

import (
	"errors"
	"io/fs"

	"repro/internal/walstore"
)

// TornWrite arms a single torn WAL append: the Nth write through the file
// system it is put On is cut or corrupted at a chosen byte and fails, and
// the store poisons itself — the simulator's model of a process dying
// mid-write. The recovery scan must truncate the tail at the tear and the
// reopened store must carry every fully synced record before it.
type TornWrite struct {
	// AppendN is the 1-based index of the write to tear; 0 never fires.
	AppendN int
	// CutAt is the byte offset within the write where the tear lands; it
	// is clamped to [1, len(p)-1].
	CutAt int
	// Flip corrupts the byte at CutAt instead of truncating the write —
	// the bit-rot variant the CRC must catch.
	Flip bool

	writes int
	// Left is the number of bytes the torn write left on disk: 0 until it
	// fires.
	Left int
}

// errTorn is the torn write's error: to the store, a failed write(2).
var errTorn = errors.New("sim: torn write")

// On returns fsys with the tear armed; its files count their writes
// towards it.
func (tw *TornWrite) On(fsys walstore.FS) walstore.FS { return tornFS{fsys, tw} }

type tornFS struct {
	walstore.FS
	tw *TornWrite
}

func (t tornFS) OpenFile(name string, flag int, perm fs.FileMode) (walstore.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tornFile{f, t.tw}, nil
}

type tornFile struct {
	walstore.File
	tw *TornWrite
}

// Write writes p whole or, as the armed write, torn, and then fails.
func (f tornFile) Write(p []byte) (int, error) {
	tw := f.tw
	tw.writes++
	if tw.AppendN == 0 || tw.writes != tw.AppendN || len(p) < 2 {
		return f.File.Write(p)
	}
	cut := min(max(tw.CutAt, 1), len(p)-1)
	torn := p[:cut]
	if tw.Flip {
		torn = append([]byte(nil), p...) // p is the store's: never written to
		torn[cut] ^= 0x40
	}
	n, err := f.File.Write(torn)
	tw.Left = n
	if err == nil {
		err = errTorn
	}
	return n, err
}
