package storage

import (
	"time"

	"repro/internal/clock"
)

// Waiter is the trigger plane's one wait primitive: what a consumer that
// re-reads a table whenever it may have changed — the timer pump, a
// promise await — parks on between reads. Each round is
// Arm, then the caller's read, then Wait. With a push-capable store a wait
// ends on the first commit to (table, hash) the caller does not claim as its
// own, on its timer, or on cancel; without one it sleeps on the clock, so
// the timer alone bounds what push does not announce. A Waiter is used by
// one goroutine at a time.
type Waiter struct {
	b     Backend
	table string
	hash  Value
	clk   clock.Clock
	sub   Subscription // nil without push; a dead one stays until the next Arm
}

// NewWaiter returns a waiter on table's commit stream (one partition of it
// when hash is not Null). It subscribes at its first Arm.
func NewWaiter(b Backend, table string, hash Value, clk clock.Clock) *Waiter {
	return &Waiter{b: b, table: table, hash: hash, clk: clk}
}

// Arm readies the next wait; call it before the read the wait follows. It
// subscribes when no subscription is live and empties the live one's
// buffer, so whatever committed before the read is the read's to see and
// every commit after it is an event for the wait. A subscription found dead
// here (a lost connection) is replaced at once; one that dies after the read
// is waited out by the next Wait and replaced at the following Arm. Arm
// reports whether the wait will be pushed.
func (w *Waiter) Arm() bool {
	if w.sub != nil && !drain(w.sub.Events()) {
		w.Close()
	}
	if w.sub == nil {
		w.sub, _ = Watch(w.b, w.table, w.hash)
	}
	return w.sub != nil
}

// drain empties events without blocking, reporting false when the channel
// is closed.
func drain(events <-chan CommitEvent) bool {
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return false
			}
		default:
			return true
		}
	}
}

// Wake says why a wait ended.
type Wake uint8

// The reasons a Waiter's wait ends.
const (
	WakeTimer  Wake = iota // the duration elapsed
	WakeEvent              // a commit the caller did not skip
	WakeCancel             // the cancel channel fired
)

// Wait blocks until a commit skip does not claim (WakeEvent), d elapses
// (WakeTimer) or cancel fires (WakeCancel). Skipped events do not extend
// the deadline; a nil skip claims nothing and a nil cancel never fires. A
// subscription that closed is waited out — or ends the wait as WakeEvent
// if skip had claimed an event on it, whose wake-up is owed — and the next
// Arm replaces it.
func (w *Waiter) Wait(d time.Duration, cancel <-chan struct{}, skip func(CommitEvent) bool) Wake {
	select {
	case <-cancel:
		return WakeCancel
	default:
	}
	if w.sub == nil {
		return Sleep(w.clk, d, cancel)
	}
	if w.sub.Wait(d, cancel, skip) {
		return WakeEvent
	}
	select {
	case <-cancel:
		return WakeCancel
	default:
		return WakeTimer
	}
}

// Close releases the subscription. The waiter stays usable: the next Arm
// subscribes again.
func (w *Waiter) Close() {
	if w.sub != nil {
		w.sub.Close()
		w.sub = nil
	}
}

// Sleep waits d on clk, cut short by cancel (WakeCancel): a Waiter's wait
// without push, and the backoff of retry loops nothing can wake early. A
// nil cancel sleeps through clk.Sleep.
func Sleep(clk clock.Clock, d time.Duration, cancel <-chan struct{}) Wake {
	if cancel == nil {
		clk.Sleep(d)
		return WakeTimer
	}
	select {
	case <-cancel:
		return WakeCancel
	default:
	}
	select {
	case <-cancel:
		return WakeCancel
	case <-clk.After(d):
		return WakeTimer
	}
}
