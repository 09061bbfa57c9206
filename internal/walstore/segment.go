package walstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/storage/codec"
)

// Segment files are named wal-<firstseq>.seg, where <firstseq> is the
// zero-padded sequence number of the first record the segment holds (so a
// directory listing is also the log's seq-order). Snapshots are
// snap-<seq>.snap, covering every record with sequence ≤ <seq>, and are
// written as snap-<seq>.snap.tmp first.
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
	seqDigits  = 20
	// segFlags open a segment for appending; every write lands at its end.
	segFlags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
)

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%0*d%s", segPrefix, seqDigits, firstSeq, segSuffix)
}

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%0*d%s", snapPrefix, seqDigits, seq, snapSuffix)
}

// parseSeq extracts the sequence number from a segment or snapshot name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != seqDigits {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSeqFiles returns the directory's segment (or snapshot) files sorted by
// their embedded sequence number.
func listSeqFiles(fsys FS, dir, prefix, suffix string) ([]string, []uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type nf struct {
		name string
		seq  uint64
	}
	var out []nf
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, nf{e.Name(), seq})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	names := make([]string, len(out))
	seqs := make([]uint64, len(out))
	for i, f := range out {
		names[i] = f.name
		seqs[i] = f.seq
	}
	return names, seqs, nil
}

// walWriter owns the tail segment file and the group-commit fsync path.
// Appends are serialized by the store's log mutex; durability waits run
// leader/follower — the first waiter to find no sync in flight fsyncs once
// for every record appended so far, and waiters arriving during that flush
// form the next batch (the same committer shape as the in-memory store's
// group-commit batcher, with the disk flush in place of the latch).
type walWriter struct {
	dir   string
	opts  Options
	stats *Stats

	// Tail segment state. size and firstSeq are touched only under the
	// store's log mutex; f is additionally swapped by rotation and closed
	// by close while durability waiters fsync it concurrently, so every
	// Sync/Close/swap of the handle serializes on fileMu. appended is
	// written under the log mutex but read by durability leaders outside
	// it, hence atomic.
	f        File
	size     int64
	firstSeq uint64        // first sequence in the tail segment
	appended atomic.Uint64 // last sequence appended (any segment)
	fileMu   sync.Mutex    // guards f.Sync / f.Close / handle swaps

	// Durability state.
	mu      sync.Mutex
	cond    *sync.Cond
	durable uint64 // last sequence known fsynced
	syncing bool
	err     error // sticky write/sync failure: the store is poisoned

	// fsyncHist, when set (Store.SetFsyncHistogram), observes the duration
	// of every tail-segment fsync — the dominant term in a durable write's
	// latency under SyncAlways.
	fsyncHist atomic.Pointer[hist.Histogram]
}

func newWALWriter(dir string, opts Options, stats *Stats) *walWriter {
	w := &walWriter{dir: dir, opts: opts, stats: stats}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// openTail opens (or creates) the tail segment for appending. lastSeq is the
// last sequence recovered; firstSeq names an existing tail segment to reuse,
// or 0 to create a fresh segment starting at lastSeq+1.
func (w *walWriter) openTail(firstSeq, lastSeq uint64, size int64) error {
	if firstSeq == 0 {
		firstSeq = lastSeq + 1
		size = 0
	}
	// Open truncated the tail to its durable prefix, so size is the file's
	// length and appending starts at size.
	f, err := w.opts.FS.OpenFile(filepath.Join(w.dir, segName(firstSeq)), segFlags, 0o644)
	if err != nil {
		return err
	}
	if err := w.syncDir(); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.size = size
	w.firstSeq = firstSeq
	w.appended.Store(lastSeq)
	w.durable = lastSeq
	return nil
}

// syncDir fsyncs the directory, so that the files created, renamed and
// removed in it stay that way.
func (w *walWriter) syncDir() error { return w.opts.FS.SyncDir(w.dir) }

// fail records a sticky failure and wakes every durability waiter.
func (w *walWriter) fail(err error) error {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	err = w.err
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// sticky returns the writer's sticky failure, if any.
func (w *walWriter) sticky() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// append writes one framed record to the tail segment, rotating first when
// the segment is full. Called under the store's log mutex, so appends hit
// the file in sequence order. The record is not durable until waitDurable.
func (w *walWriter) append(seq uint64, frame []byte) error {
	if err := w.sticky(); err != nil {
		return err
	}
	if w.size > 0 && w.size+int64(len(frame)) > w.opts.SegmentBytes {
		if err := w.rotate(seq); err != nil {
			return w.fail(err)
		}
	}
	n, err := w.f.Write(frame)
	w.size += int64(n)
	if err != nil {
		return w.fail(err)
	}
	w.appended.Store(seq)
	w.stats.Records.Add(1)
	w.stats.BytesAppended.Add(int64(len(frame)))
	return nil
}

// rotate fsyncs and closes the tail segment and starts a new one whose
// first record will be seq. After rotation every record in older segments
// is durable, so a single fsync of the tail covers the whole log. Called
// under the store's log mutex; the handle swap holds fileMu so an
// in-flight durability fsync never sees a closed file (the old file is
// fsynced here first, so a waiter that flushes the new handle instead
// still ends up with its records durable).
func (w *walWriter) rotate(seq uint64) error {
	if err := w.syncFile(); err != nil {
		return err
	}
	f, err := w.opts.FS.OpenFile(filepath.Join(w.dir, segName(seq)), segFlags|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w.fileMu.Lock()
	cerr := w.f.Close()
	w.f = f
	w.fileMu.Unlock()
	if cerr != nil {
		return cerr
	}
	w.size = 0
	w.firstSeq = seq
	w.stats.Segments.Add(1)
	return w.syncDir()
}

// syncFile fsyncs the tail segment, serialized against rotation's and
// close's handle swaps.
func (w *walWriter) syncFile() error {
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	if w.f == nil {
		return fmt.Errorf("walstore: WAL is closed")
	}
	w.stats.Fsyncs.Add(1)
	if h := w.fsyncHist.Load(); h != nil {
		t0 := time.Now()
		err := w.f.Sync()
		h.Record(time.Since(t0))
		return err
	}
	return w.f.Sync()
}

// waitDurable blocks until every record with sequence ≤ seq is on disk
// (per the configured SyncPolicy), fsyncing as needed.
func (w *walWriter) waitDurable(seq uint64) error {
	switch w.opts.Sync {
	case SyncNone:
		return w.sticky()
	case SyncEach:
		// Batching off: every committer pays its own fsync, even when a
		// concurrent flush already covered its record — the unamortized
		// baseline the backend sweep measures.
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.err != nil {
			return w.err
		}
		if err := w.syncFile(); err != nil {
			w.err = err
			w.cond.Broadcast()
			return err
		}
		if seq > w.durable {
			w.durable = seq
		}
		return nil
	}
	// SyncBatched: leader/follower group commit.
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.err != nil {
			return w.err
		}
		if w.durable >= seq {
			return nil
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		w.mu.Unlock()
		// Everything appended before this fsync lands with it: any append
		// that completed before the Sync() call is covered (rotation
		// fsyncs the old file before swapping, so records are only ever
		// un-durable in the current tail); a concurrently appending
		// writer waits for the next batch either way.
		target := w.appended.Load()
		err := w.syncFile()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.err = err
		} else {
			if target > w.durable {
				w.stats.SyncBatches.Add(1)
				w.stats.BatchedRecords.Add(int64(target - w.durable))
				w.durable = target
			}
		}
		w.cond.Broadcast()
	}
}

// close fsyncs and closes the tail segment. Late durability waiters find
// a nil handle under fileMu and fail cleanly instead of racing the close.
func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	if err := w.sticky(); err != nil {
		w.fileMu.Lock()
		w.f.Close()
		w.f = nil
		w.fileMu.Unlock()
		return err
	}
	err := w.syncFile()
	w.fileMu.Lock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	w.fileMu.Unlock()
	return err
}

// scanSegment walks one segment file's bytes, calling apply for every valid
// record. It returns the byte offset just past the last valid record and a
// non-nil corruption description when the scan stopped early (torn frame,
// CRC mismatch, undecodable body, or out-of-order sequence). expect is the
// sequence the first record must carry; records with sequence ≤ skipTo are
// validated but not applied (they predate the snapshot).
func scanSegment(data []byte, expect, skipTo uint64, apply func(record) error) (validEnd int64, lastSeq uint64, corrupt error, err error) {
	off := 0
	lastSeq = expect - 1
	for off < len(data) {
		body, next, ferr := codec.NextFrame(data, off)
		if ferr != nil {
			return int64(off), lastSeq, ferr, nil
		}
		rec, derr := decodeRecord(body)
		if derr != nil {
			return int64(off), lastSeq, fmt.Errorf("undecodable record at offset %d: %v", off, derr), nil
		}
		if rec.seq != lastSeq+1 {
			return int64(off), lastSeq, fmt.Errorf("sequence gap at offset %d: have %d, want %d", off, rec.seq, lastSeq+1), nil
		}
		if rec.seq > skipTo && apply != nil {
			if aerr := apply(rec); aerr != nil {
				return int64(off), lastSeq, nil, aerr
			}
		}
		lastSeq = rec.seq
		off = next
	}
	return int64(off), lastSeq, nil, nil
}
