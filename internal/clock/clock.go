// Package clock abstracts time so Beldi's timer-driven components (the
// intent collector and garbage collector, §3.3/§5 of the paper) and the
// substrate's modeled costs (the store's round trips, the platform's start
// latency) can be driven by a manual or virtual clock in tests and
// sequential measurements and by real time in concurrent benchmarks.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock supplies the current time and sleeping. Implementations must be safe
// for concurrent use.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// After returns a channel that delivers the then-current time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Manual is a test clock that only moves when Advance is called. Sleepers
// and After-waiters wake when the clock passes their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep implements Clock. It blocks until Advance moves the clock past the
// deadline.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	deadline := m.now.Add(d)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.waiters = append(m.waiters, &waiter{deadline: deadline, ch: ch})
	sort.Slice(m.waiters, func(i, j int) bool {
		return m.waiters[i].deadline.Before(m.waiters[j].deadline)
	})
	return ch
}

// Waiters reports how many After-waiters and sleepers the clock holds, an
// abandoned After's included until its deadline passes: a test's way to
// know that a goroutine under test has parked before it advances the clock.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// Advance moves the clock forward by d, waking any waiter whose deadline has
// passed.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	var rest []*waiter
	for _, w := range m.waiters {
		if !w.deadline.After(now) {
			w.ch <- now
		} else {
			rest = append(rest, w)
		}
	}
	m.waiters = rest
	m.mu.Unlock()
}

// Virtual is a Manual clock whose Sleep advances it at once: modeled time
// that passes only when the program charges a wait to it, so a measurement
// taken with Now is an exact function of the charges and takes no wall time.
// An After-waiter fires once a Sleep or Advance passes its deadline.
//
// Every Sleep adds its whole duration, so two goroutines sleeping at once are
// charged one after the other, not side by side. Use Virtual only for
// sequential runs, where one modeled wait happens at a time.
type Virtual struct{ Manual }

// NewVirtual returns a Virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{Manual{now: start}}
}

// Sleep implements Clock: it advances the clock by d and returns.
func (v *Virtual) Sleep(d time.Duration) {
	if d > 0 {
		v.Advance(d)
	}
}
