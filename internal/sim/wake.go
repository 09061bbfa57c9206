package sim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
)

// Commit-stream wakeups under simulation: when WakeFaults are armed, every
// sim.Backend wrapper of the run becomes a storage.Watcher, so the push
// consumers above the seam (promise awaits, queue pollers) take their
// subscription path inside the deterministic scheduler — with the
// notification channel itself under seeded attack. A wakeup is only ever a
// hint, so the protocol must tolerate every perturbation a real
// notification fabric can produce: drops (the subscriber falls back to its
// poll-cadence timeout), delays (the wakeup arrives as an in-flight packet
// long after its commit), and duplicates (a re-sent hint wakes an extra
// re-read). None of these may cost more than latency; exactly-once audits
// must hold unchanged.
//
// The simulator's Subscription never blocks on Go channel operations while
// holding the scheduler baton: Wait is reimplemented as a virtual-time
// sleep loop (each slice a scheduling decision), delivery is a non-blocking
// buffered send performed on the committing task (or on a detached delay
// task, like StoreFaults.LateDone's in-flight write), and every fault
// decision is Noted into the trace hash so a seed replays bit-identically.

// WakeFaults is the seeded fault schedule for commit-stream notifications,
// shared — like the owning StoreFaults — by every Backend wrapper of one
// simulation: subscriptions registered through one worker's view are woken
// by commits from every worker, which is what makes cross-worker push
// (caller awaits, callee posts) work at all.
type WakeFaults struct {
	// DropProb is the per-subscriber probability a wakeup is dropped; the
	// subscriber's Wait times out at its poll cadence instead.
	DropProb float64
	// DupProb is the per-subscriber probability a wakeup is delivered
	// twice.
	DupProb float64
	// DelayProb is the per-subscriber probability a wakeup is detached and
	// delivered after a virtual delay; keep MaxDelay under the protocol's T.
	DelayProb float64
	// MaxDelay bounds each injected delivery delay.
	MaxDelay time.Duration

	// All fields below are guarded by mu. The scheduler's baton already
	// single-files accesses; the lock keeps the invariant local.
	mu   sync.Mutex
	seq  map[string]uint64
	subs map[string][]*wakeSub
}

// subscribe registers a subscription; registration is complete on return,
// matching the Watcher contract (no commit between Watch returning and the
// first event is missed).
func (w *WakeFaults) subscribe(s *Scheduler, table string, hash storage.Value) *wakeSub {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.subs == nil {
		w.subs = make(map[string][]*wakeSub)
		w.seq = make(map[string]uint64)
	}
	sub := &wakeSub{
		f:     w,
		s:     s,
		table: table,
		hash:  hash,
		wide:  hash.IsNull(),
		ch:    make(chan storage.CommitEvent, storage.DefaultWatchBuffer),
	}
	w.subs[table] = append(w.subs[table], sub)
	return sub
}

// active reports whether table has subscribers — the commit path's fast
// path, mirroring dynamo.WatchHub.Active.
func (w *WakeFaults) active(table string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.subs[table]) > 0
}

// notify publishes one committed write, rolling each subscriber's fault
// dice on the committing task (so the draws are part of the schedule).
func (w *WakeFaults) notify(s *Scheduler, table string, hash storage.Value) {
	w.mu.Lock()
	list := w.subs[table]
	if len(list) == 0 {
		w.mu.Unlock()
		return
	}
	list = append([]*wakeSub(nil), list...)
	w.seq[table]++
	ev := storage.CommitEvent{Table: table, Hash: hash, Seq: w.seq[table]}
	w.mu.Unlock()
	for _, sub := range list {
		if !sub.wide && !sub.hash.Equal(hash) {
			continue
		}
		switch {
		case w.DropProb > 0 && s.rng.Float64() < w.DropProb:
			s.Note("wake drop " + table)
		case w.DupProb > 0 && s.rng.Float64() < w.DupProb:
			s.Note("wake dup " + table)
			sub.deliver(ev)
			sub.deliver(ev)
		case w.DelayProb > 0 && w.MaxDelay > 0 && s.rng.Float64() < w.DelayProb:
			d := time.Duration(s.rng.Int63n(int64(w.MaxDelay))) + time.Microsecond
			s.Note(fmt.Sprintf("wake delay %s %s", table, d))
			// In flight, deliberately NOT proc-tagged: killing the
			// committing worker does not recall a packet already sent.
			sub := sub
			s.Go(TaskOpts{Name: "wake." + table}, func() {
				s.Sleep(d)
				sub.deliver(ev)
			})
		default:
			sub.deliver(ev)
		}
	}
}

// wakeSub is the simulator's storage.Subscription.
type wakeSub struct {
	f      *WakeFaults
	s      *Scheduler
	table  string
	hash   storage.Value
	wide   bool
	ch     chan storage.CommitEvent
	closed bool // guarded by f.mu
}

// deliver enqueues one wakeup; a full buffer coalesces (an undelivered
// event already guarantees a future wakeup), a closed subscription drops.
func (sub *wakeSub) deliver(ev storage.CommitEvent) {
	sub.f.mu.Lock()
	defer sub.f.mu.Unlock()
	if sub.closed {
		return
	}
	select {
	case sub.ch <- ev:
	default:
	}
}

// Events returns the delivery channel; closed by Close. Simulation tasks
// must not block on it directly (that would stall the baton) — sim-side
// consumers use Wait, which yields through the scheduler.
func (sub *wakeSub) Events() <-chan storage.CommitEvent { return sub.ch }

// Wait implements Subscription.Wait over virtual time: pending events are
// consumed without blocking; otherwise the task sleeps in bounded slices
// (each a scheduling decision) until an unskipped event lands, d elapses, or
// cancel fires. A closed subscription waits out the full duration — degrade
// to the poll cadence, never spin — unless skip claimed an event first,
// matching the shared WatchSub contract.
func (sub *wakeSub) Wait(d time.Duration, cancel <-chan struct{}, skip func(storage.CommitEvent) bool) bool {
	deadline := sub.s.Now().Add(d)
	// Slice granularity: fine enough that push beats a poll interval by a
	// wide margin, coarse enough not to flood the trace.
	slice := d / 16
	if slice < 250*time.Microsecond {
		slice = 250 * time.Microsecond
	}
	claimed := false
	for {
		select {
		case <-cancel:
			return false
		default:
		}
		select {
		case ev, ok := <-sub.ch:
			if ok && skip != nil && skip(ev) {
				claimed = true
				continue // skipped: look for the next pending one
			}
			if ok || claimed {
				return true
			}
			// Closed: no more events can arrive; fall through to sleeping
			// out the remaining duration.
		default:
		}
		remaining := deadline.Sub(sub.s.Now())
		if remaining <= 0 {
			return false
		}
		if remaining < slice {
			sub.s.Sleep(remaining)
		} else {
			sub.s.Sleep(slice)
		}
	}
}

// Close tears the subscription down; idempotent.
func (sub *wakeSub) Close() {
	f := sub.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	list := f.subs[sub.table]
	for i, s2 := range list {
		if s2 == sub {
			f.subs[sub.table] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	close(sub.ch)
}

var _ storage.Subscription = (*wakeSub)(nil)

// Watch makes the wrapper a storage.Watcher when wake faults are armed;
// otherwise it reports no push support and the capability probe in
// storage.Watch degrades every consumer to its poll path (the pre-push
// behavior every other kind still runs under).
func (b *Backend) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	f := b.faults
	if f == nil || f.Wake == nil {
		return nil, fmt.Errorf("sim: wake faults not armed; no push support")
	}
	if _, err := b.inner.TableSchema(table); err != nil {
		return nil, err
	}
	b.s.Note("watch " + table + " @" + b.proc)
	return f.Wake.subscribe(b.s, table, hash), nil
}

var _ storage.Watcher = (*Backend)(nil)

// wake publishes a committed write to the armed wake schedule; a free no-op
// for every other kind. Call only after inner reported success.
func (b *Backend) wake(table string, hash storage.Value) {
	f := b.faults
	if f == nil || f.Wake == nil || !f.Wake.active(table) {
		return
	}
	f.Wake.notify(b.s, table, hash)
}

// wakeForItem resolves a put item's hash-key value and publishes it.
func (b *Backend) wakeForItem(table string, item storage.Item) {
	f := b.faults
	if f == nil || f.Wake == nil || !f.Wake.active(table) {
		return
	}
	sch, err := b.inner.TableSchema(table)
	if err != nil {
		return
	}
	f.Wake.notify(b.s, table, item[sch.HashKey])
}
