package storage_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/storage"
)

// waiterStore is a memory store with table "t", hash key "K".
func waiterStore(t *testing.T) *dynamo.Store {
	t.Helper()
	s := dynamo.NewStore()
	storage.MustCreateTable(s, storage.Schema{Name: "t", HashKey: "K"})
	return s
}

func commit(t *testing.T, b storage.Backend, key string) {
	t.Helper()
	if err := b.Put("t", storage.Item{"K": dynamo.S(key)}, nil); err != nil {
		t.Error(err)
	}
}

// The three reasons a pushed wait ends.
func TestWaiterWakeReasons(t *testing.T) {
	s := waiterStore(t)
	w := storage.NewWaiter(s, "t", dynamo.Null, clock.Real{})
	defer w.Close()
	if !w.Arm() {
		t.Fatal("Arm over a memory store reported no push")
	}
	commit(t, s, "a")
	if why := w.Wait(5*time.Second, nil, nil); why != storage.WakeEvent {
		t.Errorf("a commit ended the wait with %v, want WakeEvent", why)
	}
	w.Arm()
	if why := w.Wait(10*time.Millisecond, nil, nil); why != storage.WakeTimer {
		t.Errorf("a quiet table ended the wait with %v, want WakeTimer", why)
	}
	canceled := make(chan struct{})
	close(canceled)
	w.Arm()
	commit(t, s, "b") // an event is pending, but cancel comes first
	start := time.Now()
	if why := w.Wait(5*time.Second, canceled, nil); why != storage.WakeCancel {
		t.Errorf("a fired cancel ended the wait with %v, want WakeCancel", why)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("canceled wait returned after %v", el)
	}
}

// Events the caller claims as its own neither end the wait nor push its
// deadline out; the first foreign one ends it.
func TestWaiterSkipKeepsTheDeadline(t *testing.T) {
	s := waiterStore(t)
	w := storage.NewWaiter(s, "t", dynamo.Null, clock.Real{})
	defer w.Close()
	own := func(ev storage.CommitEvent) bool { return ev.Hash.Str() == "own" }

	w.Arm()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // own commits all through the wait, and past its deadline
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				commit(t, s, "own")
			}
		}
	}()
	const d = 100 * time.Millisecond
	start := time.Now()
	why := w.Wait(d, nil, own)
	el := time.Since(start)
	close(stop)
	wg.Wait()
	if why != storage.WakeTimer || el < d {
		t.Errorf("own events ended the wait after %v with %v, want WakeTimer after %v", el, why, d)
	}
	if el > time.Second {
		t.Errorf("own events stretched a %v wait to %v", d, el)
	}

	w.Arm()
	commit(t, s, "own")
	commit(t, s, "own")
	commit(t, s, "foreign")
	if why := w.Wait(5*time.Second, nil, own); why != storage.WakeEvent {
		t.Errorf("a foreign event behind own ones ended the wait with %v, want WakeEvent", why)
	}
}

// Arm empties what was buffered before it: the read that follows sees those
// commits, so only later ones may end the wait.
func TestWaiterArmDrainsStaleEvents(t *testing.T) {
	s := waiterStore(t)
	w := storage.NewWaiter(s, "t", dynamo.Null, clock.Real{})
	defer w.Close()
	w.Arm()
	for _, k := range []string{"a", "b", "c"} {
		commit(t, s, k)
	}
	w.Arm()
	if why := w.Wait(20*time.Millisecond, nil, nil); why != storage.WakeTimer {
		t.Errorf("a commit from before the arm ended the wait with %v", why)
	}
}

// subsWatcher hands out its backend's subscriptions and keeps them, so a
// test can kill one as a lost connection would.
type subsWatcher struct {
	storage.Backend
	mu   sync.Mutex
	subs []storage.Subscription
}

func (s *subsWatcher) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	sub, err := s.Backend.(storage.Watcher).Watch(table, hash)
	if err == nil {
		s.mu.Lock()
		s.subs = append(s.subs, sub)
		s.mu.Unlock()
	}
	return sub, err
}

func (s *subsWatcher) last() (storage.Subscription, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subs[len(s.subs)-1], len(s.subs)
}

// A subscription that dies after the read is waited out — the timer, not a
// spin — and replaced at the next Arm; one found dead at Arm is replaced at
// once. One that dies after the wait skipped an event on it ends the wait:
// the wake-up the skipped events were counting towards is owed.
func TestWaiterResubscribesAfterItsSubscriptionDies(t *testing.T) {
	s := waiterStore(t)
	ws := &subsWatcher{Backend: s}
	w := storage.NewWaiter(ws, "t", dynamo.Null, clock.Real{})
	defer w.Close()

	w.Arm()
	sub, _ := ws.last()
	sub.Close()
	const d = 30 * time.Millisecond
	start := time.Now()
	if why := w.Wait(d, nil, nil); why != storage.WakeTimer {
		t.Errorf("a wait on a dead subscription ended with %v, want WakeTimer", why)
	}
	if el := time.Since(start); el < d {
		t.Errorf("a wait on a dead subscription returned after %v, want its full %v", el, d)
	}
	if !w.Arm() {
		t.Fatal("Arm after a dead subscription reported no push")
	}
	if _, n := ws.last(); n != 2 {
		t.Fatalf("%d subscriptions after the re-arm, want 2", n)
	}
	commit(t, s, "a")
	if why := w.Wait(5*time.Second, nil, nil); why != storage.WakeEvent {
		t.Errorf("the replacement subscription missed a commit: %v", why)
	}

	sub, _ = ws.last()
	sub.Close()
	if !w.Arm() {
		t.Fatal("Arm over a dead subscription reported no push")
	}
	if _, n := ws.last(); n != 3 {
		t.Errorf("%d subscriptions, want 3: a dead one found at Arm is replaced there", n)
	}

	commit(t, s, "a")
	sub, _ = ws.last()
	sub.Close()
	start = time.Now()
	if why := w.Wait(5*time.Second, nil, func(storage.CommitEvent) bool { return true }); why != storage.WakeEvent {
		t.Errorf("a subscription that died after a skipped event ended the wait with %v, want WakeEvent", why)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("the owed wake-up came after %v, want at once", el)
	}
}

// Without push a wait sleeps on the waiter's clock, and cancel cuts it short.
func TestWaiterWithoutPushSleepsOnTheClock(t *testing.T) {
	type pushless struct{ storage.Backend } // embedding hides the store's Watch
	clk := clock.NewManual(time.Unix(0, 0))
	w := storage.NewWaiter(pushless{waiterStore(t)}, "t", dynamo.Null, clk)
	defer w.Close()
	if w.Arm() {
		t.Fatal("Arm over a pushless store reported push")
	}
	for _, cancel := range []chan struct{}{nil, make(chan struct{})} {
		done := make(chan storage.Wake, 1)
		go func() { done <- w.Wait(time.Millisecond, cancel, nil) }()
		select {
		case why := <-done:
			t.Fatalf("a 1 ms wait returned %v on the wall clock; it must sleep on the waiter's", why)
		case <-time.After(20 * time.Millisecond):
		}
		want := storage.WakeTimer
		if cancel != nil {
			want = storage.WakeCancel
			close(cancel)
		}
		for {
			if cancel == nil {
				clk.Advance(time.Millisecond) // again, should the sleeper register late
			}
			select {
			case why := <-done:
				if why != want {
					t.Errorf("cancel=%v: wait ended with %v, want %v", cancel != nil, why, want)
				}
			case <-time.After(10 * time.Millisecond):
				continue
			}
			break
		}
	}
}

// A waiter owns no goroutine, and Close releases its subscription.
func TestWaiterCloseLeavesNothingRunning(t *testing.T) {
	s := waiterStore(t)
	before := runtime.NumGoroutine()
	w := storage.NewWaiter(s, "t", dynamo.Null, clock.Real{})
	w.Arm()
	commit(t, s, "a")
	w.Wait(time.Second, nil, nil)
	w.Arm()
	w.Wait(time.Millisecond, nil, nil)
	w.Close()
	if n := s.Metrics().WatchSubs.Load(); n != 0 {
		t.Errorf("%d subscriptions live after Close", n)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
	}
}
