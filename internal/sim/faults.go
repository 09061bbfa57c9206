package sim

import "repro/internal/walstore"

// TornWrite arms a single torn WAL append: the Nth framed record written
// through the hooks is cut or corrupted at a chosen byte, and the store
// poisons itself — the simulator's model of a process dying mid-write. The
// recovery scan must truncate the tail at the tear and the reopened store
// must carry every fully synced record before it.
type TornWrite struct {
	// AppendN is the 1-based index of the framed append to tear; 0 never
	// fires.
	AppendN int
	// CutAt is the byte offset within the frame where the tear lands; it
	// is clamped to [1, len(frame)-1].
	CutAt int
	// Flip corrupts the byte at CutAt instead of truncating the frame —
	// the bit-rot variant the CRC must catch.
	Flip bool
}

// Hooks builds the walstore hooks that implement the tear. Each call
// returns an independently armed instance.
func (tw TornWrite) Hooks() *walstore.Hooks {
	n := 0
	return &walstore.Hooks{
		BeforeAppend: func(_ uint64, _ int64, frame []byte) []byte {
			n++
			if tw.AppendN == 0 || n != tw.AppendN || len(frame) < 2 {
				return nil
			}
			cut := tw.CutAt
			if cut < 1 {
				cut = 1
			}
			if cut > len(frame)-1 {
				cut = len(frame) - 1
			}
			if tw.Flip {
				torn := append([]byte(nil), frame...)
				torn[cut] ^= 0x40
				return torn
			}
			return frame[:cut]
		},
	}
}
