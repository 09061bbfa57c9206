package dynamo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Commit-stream watch: the store fans a notification out to subscribers
// whenever a write commits, so waiters (queue pollers, promise awaits) can
// block on event arrival instead of polling on timers — the Netherite
// commit-stream observation applied at the store seam. Events are wakeup
// hints, not a replicated log: a subscriber that receives one re-reads the
// table through the normal API, and delivery may coalesce under load (a full
// subscription buffer drops the event, which is safe precisely because an
// undelivered event in the buffer already guarantees a future wakeup).

// CommitEvent describes one committed write observed through a watch
// subscription.
type CommitEvent struct {
	// Table is the table the write committed to.
	Table string
	// Hash is the hash-key value of the committed row.
	Hash Value
	// Seq is the table's notification sequence number: ascending per table,
	// assigned in commit-notification order. Subscribers observe strictly
	// increasing Seq values.
	Seq uint64
}

// DefaultWatchBuffer is the per-subscription event buffer. When a
// subscriber lags this far behind, further events are coalesced into the
// wakeups already pending (see WatchDrops in Metrics).
const DefaultWatchBuffer = 64

// Subscription is the backend-independent handle on a commit stream; it
// lives here with the rest of the shared data model and is re-exported by
// the storage seam. Every backend's Watch returns one.
type Subscription interface {
	// Events returns the delivery channel; closed when the subscription is
	// closed or its transport is lost.
	Events() <-chan CommitEvent
	// Wait blocks until an event skip does not claim arrives (true), d
	// elapses or cancel fires (false), consuming every event it sees.
	// Skipped events do not extend the deadline; a nil skip claims nothing
	// and a nil cancel never fires. A subscription that is or becomes closed
	// waits out d like a backend without push, so retry loops keep their
	// poll cadence instead of spinning — unless skip claimed an event in
	// this wait: the wake-up those events were counting towards can no
	// longer come, so the close reports it (true) and the caller re-reads
	// and resubscribes.
	Wait(d time.Duration, cancel <-chan struct{}, skip func(CommitEvent) bool) bool
	// Close tears the subscription down; idempotent.
	Close()
}

// WaitEvents is Subscription.Wait over a subscription's delivery channel, on
// the wall clock: the one implementation behind every channel-backed
// subscription.
func WaitEvents(ch <-chan CommitEvent, d time.Duration, cancel <-chan struct{}, skip func(CommitEvent) bool) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	claimed := false
	for {
		select {
		case ev, ok := <-ch:
			switch {
			case !ok && claimed:
				return true // the claimed events' wake-up is owed
			case !ok:
				ch = nil // closed: degrade to the plain timer
			case skip == nil || !skip(ev):
				return true
			default:
				claimed = true
			}
		case <-timer.C:
			return false
		case <-cancel:
			return false
		}
	}
}

// WatchSub is a live subscription to a table's commit stream, the concrete
// Subscription of hub-based backends (memory store, walstore, the remote
// server's per-connection pushers).
type WatchSub struct {
	hub    *WatchHub
	table  string
	hash   Value // Null means the whole table
	wide   bool
	ch     chan CommitEvent
	closed bool // guarded by hub.mu
}

// Events returns the subscription's delivery channel. It is closed when the
// subscription is closed; events may be coalesced (dropped) when the buffer
// is full, so treat delivery as a wakeup hint and re-read the table.
func (w *WatchSub) Events() <-chan CommitEvent { return w.ch }

// Wait implements Subscription.Wait (see WaitEvents).
func (w *WatchSub) Wait(d time.Duration, cancel <-chan struct{}, skip func(CommitEvent) bool) bool {
	return WaitEvents(w.ch, d, cancel, skip)
}

// Close tears the subscription down and closes its Events channel. Close is
// idempotent.
func (w *WatchSub) Close() { w.hub.unsubscribe(w) }

// String describes the subscription.
func (w *WatchSub) String() string {
	if w.wide {
		return fmt.Sprintf("watch(%s)", w.table)
	}
	return fmt.Sprintf("watch(%s/%s)", w.table, w.hash)
}

// WatchHub is the fan-out registry a backend notifies from its commit path:
// per-table subscriber lists and notification sequences. The memory store
// owns one and notifies when a write's group-commit batch completes;
// walstore owns its own and notifies only after the fsync that made the
// write durable (its memtable's hub stays silent — watchers of a durable
// backend must never wake ahead of durability).
type WatchHub struct {
	mu   sync.Mutex
	n    atomic.Int64 // live subscriptions; the no-subscriber fast path
	seq  map[string]uint64
	subs map[string][]*WatchSub

	metrics *Metrics
}

// NewWatchHub creates a hub; m (optional) receives the hub's counters.
func NewWatchHub(m *Metrics) *WatchHub { return &WatchHub{metrics: m} }

// Active reports whether any subscription is live — commit paths use it to
// skip notification work entirely when nobody watches.
func (h *WatchHub) Active() bool { return h.n.Load() > 0 }

// Subscribe registers a subscription on table; a Null hash watches every
// partition. Registration is complete when Subscribe returns.
func (h *WatchHub) Subscribe(table string, hash Value) *WatchSub {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seq == nil {
		h.seq = make(map[string]uint64)
		h.subs = make(map[string][]*WatchSub)
	}
	w := &WatchSub{
		hub:   h,
		table: table,
		hash:  hash,
		wide:  hash.IsNull(),
		ch:    make(chan CommitEvent, DefaultWatchBuffer),
	}
	h.subs[table] = append(h.subs[table], w)
	h.n.Add(1)
	if h.metrics != nil {
		h.metrics.WatchSubs.Add(1)
	}
	return w
}

func (h *WatchHub) unsubscribe(w *WatchSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	list := h.subs[w.table]
	for i, s := range list {
		if s == w {
			h.subs[w.table] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	close(w.ch)
	h.n.Add(-1)
	if h.metrics != nil {
		h.metrics.WatchSubs.Add(-1)
	}
}

// Notify publishes one committed write on table to every matching
// subscription. Sends never block: a full buffer coalesces the event into
// the subscriber's already-pending wakeups. Call it only after the write is
// observable through the backend's read path (and durable, for backends
// that promise durability at write return).
func (h *WatchHub) Notify(table string, hash Value) {
	if !h.Active() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	list := h.subs[table]
	if len(list) == 0 {
		return
	}
	h.seq[table]++
	ev := CommitEvent{Table: table, Hash: hash, Seq: h.seq[table]}
	for _, w := range list {
		if !w.wide && !w.hash.Equal(hash) {
			continue
		}
		select {
		case w.ch <- ev:
			if h.metrics != nil {
				h.metrics.WatchNotifies.Add(1)
			}
		default:
			if h.metrics != nil {
				h.metrics.WatchDrops.Add(1)
			}
		}
	}
}

// CloseAll closes every live subscription (backend shutdown, connection
// teardown on the remote server).
func (h *WatchHub) CloseAll() {
	h.mu.Lock()
	var all []*WatchSub
	for _, list := range h.subs {
		all = append(all, list...)
	}
	h.mu.Unlock()
	for _, w := range all {
		h.unsubscribe(w)
	}
}

// Watch subscribes to table's commit stream. A Null hash watches every
// partition; otherwise only commits to rows whose hash-key value equals
// hash are delivered. The subscription is registered before Watch returns:
// every write that commits after the call produces a wakeup (subject to
// buffer coalescing). Writes that committed before the call do not — do an
// initial read after subscribing.
func (s *Store) Watch(table string, hash Value) (Subscription, error) {
	if _, err := s.table(table); err != nil {
		return nil, err
	}
	return s.watch.Subscribe(table, hash), nil
}

// notifyCommit publishes one committed single-row write; called by the
// write paths after the apply (and its group-commit batch) completes.
func (s *Store) notifyCommit(table string, hash Value) {
	s.watch.Notify(table, hash)
}
