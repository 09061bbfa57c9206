package platform

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/queue"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// TestMapperPushWakeupDeliversBeforePollInterval pins the push path: with a
// deliberately huge PollInterval, an enqueue must still be delivered almost
// immediately, because the idle mapper blocks on the queue table's commit
// stream rather than the poll timer.
func TestMapperPushWakeupDeliversBeforePollInterval(t *testing.T) {
	broker, plat, m := newMapperRig(t, queue.Options{}, Options{},
		EventSourceOptions{Queue: "q", Function: "consume", PollInterval: time.Hour})
	delivered := make(chan string, 1)
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		delivered <- input.Str()
		return dynamo.Null, nil
	}, 0)

	m.Start()
	defer m.Stop()
	// Let the loop drain its initial poll and park on the subscription.
	time.Sleep(20 * time.Millisecond)
	if _, err := broker.Enqueue("q", dynamo.S("pushed")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-delivered:
		if got != "pushed" {
			t.Fatalf("delivered %q, want %q", got, "pushed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered: push wakeup lost and poll fallback is an hour out")
	}
	if m.Metrics().Wakeups.Load() == 0 {
		t.Error("Wakeups = 0, want at least one push wakeup")
	}
}

// TestMapperStopInterruptsIdleWait pins that Stop returns promptly while the
// loop is parked in an idle wait with a long PollInterval — the wait must be
// interruptible, not slept out.
func TestMapperStopInterruptsIdleWait(t *testing.T) {
	_, plat, m := newMapperRig(t, queue.Options{}, Options{},
		EventSourceOptions{Queue: "q", Function: "consume", PollInterval: time.Hour})
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		return dynamo.Null, nil
	}, 0)

	m.Start()
	time.Sleep(20 * time.Millisecond) // park in the idle wait
	done := make(chan struct{})
	go func() {
		m.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not interrupt an idle wait with PollInterval = 1h")
	}
}

// TestMapperRunCancelInterruptsIdleWait is the context-first twin: canceling
// Run's context must end the loop promptly mid-idle-wait.
func TestMapperRunCancelInterruptsIdleWait(t *testing.T) {
	_, plat, m := newMapperRig(t, queue.Options{}, Options{},
		EventSourceOptions{Queue: "q", Function: "consume", PollInterval: time.Hour})
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		return dynamo.Null, nil
	}, 0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	time.Sleep(20 * time.Millisecond) // park in the idle wait
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not observe cancellation during an idle wait with PollInterval = 1h")
	}
}

// The tests below pin the mapper's pay-per-message rules (Mapper.run). Every
// one of them runs with PollInterval = 1h, so a delivery that arrives at all
// arrived on the rule under test, not on the fallback timer.

// countedRig is newMapperRig over a counting backend, with queue "q" feeding
// function "consume".
func countedRig(t *testing.T, store storage.Backend, eopts EventSourceOptions) (*storagetest.Counting, *queue.Broker, *Platform, *Mapper) {
	t.Helper()
	counted := storagetest.NewCounting(store)
	broker := queue.NewBroker(queue.BrokerOptions{Store: counted})
	broker.MustCreate("q", queue.Options{})
	plat := New(Options{})
	eopts.Queue, eopts.Function, eopts.PollInterval = "q", "consume", time.Hour
	return counted, broker, plat, MustNewMapper(broker, plat, eopts)
}

// eventually polls cond until it holds, failing the test after a second.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not within 1s: %s", what)
		}
	}
}

func mustEnqueue(t *testing.T, broker *queue.Broker, body string) {
	t.Helper()
	if _, err := broker.Enqueue("q", dynamo.S(body)); err != nil {
		t.Fatal(err)
	}
}

// TestMapperPaysOneScanPerMessage enqueues k messages one at a time, each
// only after the previous one was acked: the worst case for batching, and
// still one scan per message — the mapper's own claim and ack commits wake
// nothing, and a batch that was not full is not followed by a scan that
// finds the queue empty.
func TestMapperPaysOneScanPerMessage(t *testing.T) {
	const k = 20
	counted, broker, plat, m := countedRig(t, dynamo.NewStore(), EventSourceOptions{})
	plat.Register("consume", func(*Invocation, Value) (Value, error) { return dynamo.Null, nil }, 0)
	m.Start()
	defer m.Stop()
	for i := 1; i <= k; i++ {
		mustEnqueue(t, broker, fmt.Sprint(i))
		eventually(t, fmt.Sprintf("message %d acked", i), func() bool { return m.Metrics().Delivered.Load() == int64(i) })
	}
	m.Stop()
	if scans := counted.Count("queue.q", "scan"); scans > k+2 {
		t.Errorf("%d messages cost %d scans of the queue, want at most %d (one each, plus the first poll)", k, scans, k+2)
	}
	if w := m.Metrics().Wakeups.Load(); w > k+1 {
		t.Errorf("Wakeups = %d for %d enqueues: the mapper's own commits must not count", w, k)
	}
}

// TestMapperDeliversEnqueueCommittedMidBatch: a message enqueued while a
// batch is in flight is a buffered event by the time the batch settles, so
// the mapper — which no longer re-scans after a batch — still picks it up.
func TestMapperDeliversEnqueueCommittedMidBatch(t *testing.T) {
	_, broker, plat, m := countedRig(t, dynamo.NewStore(), EventSourceOptions{})
	inFlight, release := make(chan struct{}), make(chan struct{})
	plat.Register("consume", func(_ *Invocation, in Value) (Value, error) {
		if in.Str() == "first" {
			close(inFlight)
			<-release
		}
		return dynamo.Null, nil
	}, 0)
	mustEnqueue(t, broker, "first")
	m.Start()
	defer m.Stop()
	<-inFlight
	mustEnqueue(t, broker, "second")
	close(release)
	eventually(t, "the mid-batch enqueue delivered", func() bool { return m.Metrics().Delivered.Load() == 2 })
}

// TestMapperFullBatchPollsAgain: nothing announces the messages a full batch
// left behind (they were enqueued before the mapper subscribed), so a full
// batch must poll again without waiting.
func TestMapperFullBatchPollsAgain(t *testing.T) {
	_, broker, plat, m := countedRig(t, dynamo.NewStore(), EventSourceOptions{BatchSize: 2})
	plat.Register("consume", func(*Invocation, Value) (Value, error) { return dynamo.Null, nil }, 0)
	for i := 0; i < 5; i++ {
		mustEnqueue(t, broker, fmt.Sprint(i))
	}
	m.Start()
	defer m.Stop()
	eventually(t, "all 5 delivered in batches of 2", func() bool { return m.Metrics().Delivered.Load() == 5 })
}

// TestMapperNackedBatchPollsAgain: the only event a nack produces is the
// mapper's own, which it skips — so the nack itself must trigger the poll
// that redelivers the message.
func TestMapperNackedBatchPollsAgain(t *testing.T) {
	_, broker, plat, m := countedRig(t, dynamo.NewStore(), EventSourceOptions{NackOnError: true})
	var attempts atomic.Int64
	plat.Register("consume", func(*Invocation, Value) (Value, error) {
		if attempts.Add(1) == 1 {
			return dynamo.Null, fmt.Errorf("transient")
		}
		return dynamo.Null, nil
	}, 0)
	mustEnqueue(t, broker, "flaky")
	m.Start()
	defer m.Stop()
	eventually(t, "the nacked message redelivered", func() bool { return m.Metrics().Delivered.Load() == 1 })
	if n := attempts.Load(); n != 2 {
		t.Errorf("handler ran %d times, want 2", n)
	}
}

// TestMapperFullBufferPollsInsteadOfFiltering drives the one case where
// skipping own events could lose a message: a batch big enough that its own
// claim and ack events fill the subscription buffer, and a foreign enqueue
// that commits while it is full — the hub drops that event, on the promise
// that the pending ones will wake the subscriber. A mapper that filtered the
// pending ones away would sleep out PollInterval; after a batch that big it
// must not filter at all.
func TestMapperFullBufferPollsInsteadOfFiltering(t *testing.T) {
	const own = storage.DefaultWatchBuffer/2 + 8 // 2 events per message: overflows the buffer
	store := dynamo.NewStore()
	_, broker, plat, m := countedRig(t, store, EventSourceOptions{BatchSize: 2 * own})
	plat.Register("consume", func(_ *Invocation, in Value) (Value, error) {
		if in.Str() == "gate" {
			// Hold the batch open until every other message of it is acked,
			// so the buffer is full of the mapper's own events; then enqueue.
			for m.Metrics().Delivered.Load() < own-1 {
				time.Sleep(100 * time.Microsecond)
			}
			if _, err := broker.Enqueue("q", dynamo.S("foreign")); err != nil {
				return dynamo.Null, err
			}
		}
		return dynamo.Null, nil
	}, 0)
	mustEnqueue(t, broker, "gate")
	for i := 1; i < own; i++ {
		mustEnqueue(t, broker, fmt.Sprint(i))
	}
	m.Start()
	defer m.Stop()
	eventually(t, "the enqueue whose event was coalesced delivered", func() bool { return m.Metrics().Delivered.Load() == own+1 })
	if store.Metrics().WatchDrops.Load() == 0 {
		t.Error("no event was dropped: the buffer never filled and the test exercised nothing")
	}
}

// TestMapperWithoutPushScansAsBefore: the subscription is what makes idling
// after a batch safe, so on a store without one the loop is the classic one —
// a batch that delivered something is followed by a scan at once, and only an
// empty one sleeps.
func TestMapperWithoutPushScansAsBefore(t *testing.T) {
	type pushless struct{ storage.Backend } // embedding hides the store's Watch
	counted, broker, plat, m := countedRig(t, pushless{dynamo.NewStore()}, EventSourceOptions{})
	plat.Register("consume", func(*Invocation, Value) (Value, error) { return dynamo.Null, nil }, 0)
	for i := 0; i < 3; i++ {
		mustEnqueue(t, broker, fmt.Sprint(i))
	}
	m.Start()
	defer m.Stop()
	eventually(t, "the batch and its trailing scan", func() bool {
		return m.Metrics().Delivered.Load() == 3 && counted.Count("queue.q", "scan") == 2
	})
	m.Stop()
	if scans := counted.Count("queue.q", "scan"); scans != 2 {
		t.Errorf("%d scans, want 2: the batch, and the empty poll that parks the loop for PollInterval", scans)
	}
	if w := m.Metrics().Wakeups.Load(); w != 0 {
		t.Errorf("Wakeups = %d without a subscription", w)
	}
}
