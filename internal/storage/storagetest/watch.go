package storagetest

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// Watch conformance: every backend that implements storage.Watcher must
// expose the same commit-stream semantics — a wakeup per committed write
// with strictly increasing per-table Seq, synchronous registration (no
// commit between Watch returning and the first event is ever missed),
// hash-key filtering, timer-bounded Wait that degrades (never spins) on a
// closed subscription, idempotent Close that closes the Events channel, and
// a full buffer that coalesces events without losing its pending wake-up.
// Backends without push support skip the section; their consumers fall back
// to polling through the storage.Watch capability probe.

// watchTimeout bounds waits for events that MUST arrive. It is generous
// because the remote backend delivers over a real connection.
const watchTimeout = 5 * time.Second

// watchQuiet bounds waits for events that must NOT arrive. Absence can only
// be observed for a bounded time; a backend that wrongly delivers here is
// caught (possibly flakily fast, never flakily slow).
const watchQuiet = 100 * time.Millisecond

// requireWatcher skips the subtest when b has no push support.
func requireWatcher(t *testing.T, b storage.Backend) storage.Watcher {
	t.Helper()
	w, ok := b.(storage.Watcher)
	if !ok {
		t.Skip("backend is not a storage.Watcher; consumers poll instead")
	}
	return w
}

func mustWatch(t *testing.T, b storage.Backend, table string, hash dynamo.Value) storage.Subscription {
	t.Helper()
	sub, err := requireWatcher(t, b).Watch(table, hash)
	if err != nil {
		t.Fatalf("Watch(%s, %v): %v", table, hash, err)
	}
	return sub
}

// recvEvent receives one event from sub within timeout.
func recvEvent(t *testing.T, sub storage.Subscription, timeout time.Duration) (storage.CommitEvent, bool) {
	t.Helper()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case ev, ok := <-sub.Events():
		return ev, ok
	case <-timer.C:
		return storage.CommitEvent{}, false
	}
}

// testWatchWakeOnCommit: every mutating operation — Put, Update, Delete,
// and each write of a TransactWrite — produces a wakeup carrying the table,
// the row's hash-key value, and a strictly increasing Seq, delivered in
// commit order.
func testWatchWakeOnCommit(t *testing.T, b storage.Backend) {
	requireWatcher(t, b)
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	sub := mustWatch(t, b, "t", dynamo.Null)
	defer sub.Close()

	put(t, b, "t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)})
	if err := b.Update("t", dynamo.HK(dynamo.S("a")), nil, dynamo.Add(dynamo.A("V"), 1)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := b.Delete("t", dynamo.HK(dynamo.S("a")), nil); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := b.TransactWrite([]storage.TxOp{
		{Table: "t", Put: storage.Item{"K": dynamo.S("b"), "V": dynamo.NInt(7)}},
	}); err != nil {
		t.Fatalf("TransactWrite: %v", err)
	}

	wantHash := []string{"a", "a", "a", "b"}
	var last uint64
	for i, want := range wantHash {
		ev, ok := recvEvent(t, sub, watchTimeout)
		if !ok {
			t.Fatalf("commit %d produced no wakeup (got %d of %d)", i, i, len(wantHash))
		}
		if ev.Table != "t" {
			t.Errorf("event %d table = %q, want t", i, ev.Table)
		}
		if ev.Hash.Str() != want {
			t.Errorf("event %d hash = %v, want %s", i, ev.Hash, want)
		}
		if ev.Seq <= last {
			t.Fatalf("event %d Seq = %d after %d: per-table Seq must be strictly increasing", i, ev.Seq, last)
		}
		last = ev.Seq
	}
}

// testWatchNoMissedCommit: registration is synchronous. A commit strictly
// before Watch is never delivered; the first commit after Watch returns
// always is — exercised across repeated subscribe-then-immediately-commit
// rounds to catch registration races.
func testWatchNoMissedCommit(t *testing.T, b storage.Backend) {
	requireWatcher(t, b)
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	put(t, b, "t", storage.Item{"K": dynamo.S("before"), "V": dynamo.NInt(0)})

	for round := 0; round < 10; round++ {
		sub := mustWatch(t, b, "t", dynamo.Null)
		key := dynamo.S("r" + string(rune('0'+round)))
		put(t, b, "t", storage.Item{"K": key, "V": dynamo.NInt(int64(round))})
		ev, ok := recvEvent(t, sub, watchTimeout)
		if !ok {
			t.Fatalf("round %d: commit immediately after Watch returned was missed", round)
		}
		if ev.Hash.Str() != key.Str() {
			t.Fatalf("round %d: first event is for %v, want %v — a pre-subscribe commit leaked in", round, ev.Hash, key)
		}
		sub.Close()
	}

	// A fresh subscription sees nothing from the table's history.
	sub := mustWatch(t, b, "t", dynamo.Null)
	defer sub.Close()
	if ev, ok := recvEvent(t, sub, watchQuiet); ok {
		t.Errorf("pre-subscribe commit delivered: %+v", ev)
	}
}

// testWatchHashFilter: a hash-scoped subscription wakes only for its
// partition; a Null-hash subscription wakes for every commit; both observe
// strictly increasing Seq.
func testWatchHashFilter(t *testing.T, b storage.Backend) {
	requireWatcher(t, b)
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	narrow := mustWatch(t, b, "t", dynamo.S("hot"))
	defer narrow.Close()
	wide := mustWatch(t, b, "t", dynamo.Null)
	defer wide.Close()

	writes := []string{"cold1", "hot", "cold2", "hot"}
	for i, k := range writes {
		put(t, b, "t", storage.Item{"K": dynamo.S(k), "V": dynamo.NInt(int64(i))})
	}

	// The wide subscription fans out every commit, in order.
	var last uint64
	for i, want := range writes {
		ev, ok := recvEvent(t, wide, watchTimeout)
		if !ok {
			t.Fatalf("wide subscription got %d of %d events", i, len(writes))
		}
		if ev.Hash.Str() != want {
			t.Errorf("wide event %d hash = %v, want %s", i, ev.Hash, want)
		}
		if ev.Seq <= last {
			t.Fatalf("wide event %d Seq = %d after %d", i, ev.Seq, last)
		}
		last = ev.Seq
	}

	// The narrow subscription sees exactly the two hot commits.
	last = 0
	for i := 0; i < 2; i++ {
		ev, ok := recvEvent(t, narrow, watchTimeout)
		if !ok {
			t.Fatalf("narrow subscription got %d of 2 hot events", i)
		}
		if ev.Hash.Str() != "hot" {
			t.Fatalf("narrow subscription woke for %v: hash filter leaked", ev.Hash)
		}
		if ev.Seq <= last {
			t.Fatalf("narrow event %d Seq = %d after %d", i, ev.Seq, last)
		}
		last = ev.Seq
	}
	if ev, ok := recvEvent(t, narrow, watchQuiet); ok {
		t.Errorf("narrow subscription delivered an extra event: %+v", ev)
	}
}

// testWatchWaitSemantics: Wait consumes a pending or arriving event (true),
// times out empty (false), aborts on cancel (false), and on a closed
// subscription waits out the full duration like a backend without push —
// the retry loops built on Wait keep their poll cadence instead of
// spinning.
func testWatchWaitSemantics(t *testing.T, b storage.Backend) {
	requireWatcher(t, b)
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	sub := mustWatch(t, b, "t", dynamo.Null)
	defer sub.Close()

	put(t, b, "t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)})
	if !sub.Wait(watchTimeout, nil, nil) {
		t.Fatal("Wait missed a committed write")
	}
	if sub.Wait(watchQuiet, nil, nil) {
		t.Fatal("Wait claimed an event on a drained stream")
	}

	// A fired cancel aborts a long Wait promptly.
	canceled := make(chan struct{})
	close(canceled)
	start := time.Now()
	if sub.Wait(watchTimeout, canceled, nil) {
		t.Error("canceled Wait claimed an event")
	}
	if el := time.Since(start); el > watchTimeout/2 {
		t.Errorf("canceled Wait returned after %v, want prompt abort", el)
	}

	// Closed subscription: false after the FULL duration — degrade, never
	// spin, never return early.
	sub.Close()
	const d = 80 * time.Millisecond
	start = time.Now()
	if sub.Wait(d, nil, nil) {
		t.Error("Wait on a closed subscription claimed an event")
	}
	if el := time.Since(start); el < d/2 {
		t.Errorf("Wait on a closed subscription returned after %v, want ~%v: a degraded waiter keeps the poll cadence", el, d)
	}
}

// testWatchCloseSemantics: Close closes the Events channel (after any
// pending events drain), is idempotent, later commits deliver nothing, and
// watching an unknown table fails — with storage.Watch turning both the
// failure and a push-less backend into a clean poll fallback.
func testWatchCloseSemantics(t *testing.T, b storage.Backend) {
	w := requireWatcher(t, b)
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	sub := mustWatch(t, b, "t", dynamo.Null)
	put(t, b, "t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)})
	sub.Close()

	// Drain anything already buffered; the channel must then report closed.
	deadline := time.NewTimer(watchTimeout)
	defer deadline.Stop()
	for {
		select {
		case _, ok := <-sub.Events():
			if !ok {
				goto closed
			}
		case <-deadline.C:
			t.Fatal("Events channel never closed after Close")
		}
	}
closed:
	sub.Close() // idempotent

	// Commits after Close are invisible to the dead subscription and must
	// not disturb the backend.
	put(t, b, "t", storage.Item{"K": dynamo.S("b"), "V": dynamo.NInt(2)})
	if _, ok := <-sub.Events(); ok {
		t.Error("closed subscription delivered an event")
	}

	// Unknown tables are a Watch error, and the capability probe reports
	// no-push rather than surfacing it (pollers handle real errors).
	if _, err := w.Watch("nope", dynamo.Null); err == nil {
		t.Error("Watch on an unknown table succeeded")
	}
	if _, ok := storage.Watch(b, "nope", dynamo.Null); ok {
		t.Error("storage.Watch reported push support for an unknown table")
	}
	if _, ok := storage.Watch(b, "t", dynamo.Null); !ok {
		t.Error("storage.Watch reported no push support on a Watcher backend")
	}
}

// testWatchBufferOverflow: a subscriber that lags more than
// storage.DefaultWatchBuffer commits still wakes, and its re-read sees every
// commit. A full buffer coalesces each later event into the wake-ups
// already pending; it must never lose them, since the timer pump and
// promise awaits rely on "an event is pending" meaning "a wake-up will
// come". Each round overflows a fresh subscription by a different amount,
// the first by exactly one commit. On the memory store the coalesced
// events are counted as WatchDrops.
func testWatchBufferOverflow(t *testing.T, b storage.Backend) {
	requireWatcher(t, b)
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	mem, isMem := b.(*dynamo.Store)
	for round, over := range []int{1, 2, storage.DefaultWatchBuffer / 2} {
		sub := mustWatch(t, b, "t", dynamo.Null)
		var drops int64
		if isMem {
			drops = mem.Metrics().Snapshot().WatchDrops
		}
		n := storage.DefaultWatchBuffer + over
		for i := 0; i < n; i++ {
			put(t, b, "t", storage.Item{"K": dynamo.S(fmt.Sprintf("k%03d", i)), "V": dynamo.NInt(int64(round))})
		}
		if !sub.Wait(watchTimeout, nil, nil) {
			t.Fatalf("round %d: a subscriber %d commits behind never woke: the overflow lost its pending wake-up", round, n)
		}
		rows, err := b.Scan("t", storage.QueryOpts{})
		if err != nil {
			t.Fatalf("round %d: re-read: %v", round, err)
		}
		fresh := 0
		for _, r := range rows {
			if r["V"].Int() == int64(round) {
				fresh++
			}
		}
		if fresh != n {
			t.Fatalf("round %d: re-read after the wake-up saw %d of %d commits", round, fresh, n)
		}
		if isMem {
			if d := mem.Metrics().Snapshot().WatchDrops - drops; d < int64(over) {
				t.Errorf("round %d: WatchDrops rose by %d, want at least %d for a buffer overflowed by %d", round, d, over, over)
			}
		}
		sub.Close()
	}
}
