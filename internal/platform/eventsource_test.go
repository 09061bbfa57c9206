package platform

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/queue"
)

func newMapperRig(t *testing.T, qopts queue.Options, popts Options, eopts EventSourceOptions) (*queue.Broker, *Platform, *Mapper) {
	t.Helper()
	broker := queue.NewBroker(queue.BrokerOptions{Store: dynamo.NewStore()})
	broker.MustCreate(eopts.Queue, qopts)
	plat := New(popts)
	m := MustNewMapper(broker, plat, eopts)
	return broker, plat, m
}

func TestMapperDeliversBatchAndAcks(t *testing.T) {
	broker, plat, m := newMapperRig(t, queue.Options{}, Options{},
		EventSourceOptions{Queue: "q", Function: "consume", BatchSize: 4})

	var got sync.Map
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		got.Store(input.Str(), true)
		return dynamo.Null, nil
	}, 0)

	for _, s := range []string{"a", "b", "c"} {
		if _, err := broker.Enqueue("q", dynamo.S(s)); err != nil {
			t.Fatal(err)
		}
	}
	processed, failed, err := m.PollOnce()
	if err != nil || processed != 3 || failed != 0 {
		t.Fatalf("PollOnce = (%d, %d, %v), want (3, 0, nil)", processed, failed, err)
	}
	for _, s := range []string{"a", "b", "c"} {
		if _, ok := got.Load(s); !ok {
			t.Fatalf("message %q not delivered", s)
		}
	}
	if n, _ := broker.Depth("q"); n != 0 {
		t.Fatalf("queue depth = %d after successful batch, want 0", n)
	}
	if m.Metrics().Delivered.Load() != 3 {
		t.Fatalf("Delivered = %d, want 3", m.Metrics().Delivered.Load())
	}
}

func TestMapperBatchSizeCapsClaims(t *testing.T) {
	broker, plat, m := newMapperRig(t, queue.Options{VisibilityTimeout: time.Hour}, Options{},
		EventSourceOptions{Queue: "q", Function: "consume", BatchSize: 2})
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		return dynamo.Null, nil
	}, 0)
	for i := 0; i < 5; i++ {
		if _, err := broker.Enqueue("q", dynamo.NInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for want := 5; want > 0; want -= 2 {
		processed, _, err := m.PollOnce()
		if err != nil {
			t.Fatal(err)
		}
		expect := 2
		if want < 2 {
			expect = want
		}
		if processed != expect {
			t.Fatalf("PollOnce processed %d, want %d", processed, expect)
		}
	}
}

func TestMapperCrashedConsumerLeavesMessageInFlight(t *testing.T) {
	broker, plat, m := newMapperRig(t, queue.Options{VisibilityTimeout: 50 * time.Millisecond}, Options{},
		EventSourceOptions{Queue: "q", Function: "consume", BatchSize: 1})

	var calls atomic.Int64
	plat.SetFaults(&CrashOnce{Function: "consume", Label: "work"})
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		calls.Add(1)
		inv.CrashPoint("work", "")
		return dynamo.Null, nil
	}, 0)

	if _, err := broker.Enqueue("q", dynamo.S("x")); err != nil {
		t.Fatal(err)
	}
	processed, failed, err := m.PollOnce()
	if err != nil || processed != 0 || failed != 1 {
		t.Fatalf("PollOnce = (%d, %d, %v), want (0, 1, nil)", processed, failed, err)
	}
	// The dead consumer cannot nack: the message stays in flight...
	if processed, _, _ := m.PollOnce(); processed != 0 {
		t.Fatal("message visible again before the visibility timeout")
	}
	// ...until the claim expires, then redelivery succeeds.
	deadline := time.Now().Add(2 * time.Second)
	for {
		processed, _, err := m.PollOnce()
		if err != nil {
			t.Fatal(err)
		}
		if processed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("message never redelivered after visibility timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2 (crash, then redelivery)", calls.Load())
	}
	if n, _ := broker.Depth("q"); n != 0 {
		t.Fatalf("depth = %d after successful redelivery, want 0", n)
	}
}

func TestMapperNackOnErrorRedeliversImmediately(t *testing.T) {
	broker, plat, m := newMapperRig(t, queue.Options{VisibilityTimeout: time.Hour}, Options{},
		EventSourceOptions{Queue: "q", Function: "consume", BatchSize: 1, NackOnError: true})

	var calls atomic.Int64
	plat.SetFaults(&CrashOnce{Function: "consume", Label: "work"})
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		calls.Add(1)
		inv.CrashPoint("work", "")
		return dynamo.Null, nil
	}, 0)
	if _, err := broker.Enqueue("q", dynamo.S("x")); err != nil {
		t.Fatal(err)
	}
	if _, failed, _ := m.PollOnce(); failed != 1 {
		t.Fatal("expected first delivery to fail")
	}
	// NackOnError returned it immediately, despite the hour-long timeout.
	processed, _, err := m.PollOnce()
	if err != nil || processed != 1 {
		t.Fatalf("redelivery = (%d, %v), want (1, nil)", processed, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", calls.Load())
	}
}

func TestMapperThrottledDeliveryNacksAndRetries(t *testing.T) {
	broker, plat, m := newMapperRig(t, queue.Options{VisibilityTimeout: time.Hour},
		Options{ConcurrencyLimit: 1, RejectWhenSaturated: true},
		EventSourceOptions{Queue: "q", Function: "consume", BatchSize: 1})

	release := make(chan struct{})
	var done sync.WaitGroup
	plat.Register("hog", func(inv *Invocation, input Value) (Value, error) {
		<-release
		return dynamo.Null, nil
	}, 0)
	var delivered atomic.Int64
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		delivered.Add(1)
		return dynamo.Null, nil
	}, 0)

	// Saturate the account, then poll: the delivery is throttled and the
	// message nacked back to visible.
	done.Add(1)
	go func() {
		defer done.Done()
		plat.Invoke("hog", dynamo.Null) //nolint:errcheck
	}()
	for plat.Metrics().Invocations.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := broker.Enqueue("q", dynamo.S("x")); err != nil {
		t.Fatal(err)
	}
	processed, failed, err := m.PollOnce()
	if err != nil || processed != 0 || failed != 1 {
		t.Fatalf("PollOnce under saturation = (%d, %d, %v), want (0, 1, nil)", processed, failed, err)
	}
	if n, _ := broker.Len("q"); n != 1 {
		t.Fatalf("throttled message not visible for retry (len=%d)", n)
	}
	close(release)
	done.Wait()
	processed, _, err = m.PollOnce()
	if err != nil || processed != 1 || delivered.Load() != 1 {
		t.Fatalf("post-throttle redelivery = (%d, %v), delivered=%d", processed, err, delivered.Load())
	}
}

func TestMapperDeliversUnderBlockingSaturation(t *testing.T) {
	// On a platform with blocking admission (the default), a saturated
	// account must not park delivery goroutines while their visibility
	// claims tick away: triggers run with internal admission and complete.
	broker, plat, m := newMapperRig(t, queue.Options{VisibilityTimeout: 50 * time.Millisecond},
		Options{ConcurrencyLimit: 1},
		EventSourceOptions{Queue: "q", Function: "consume", BatchSize: 2})
	release := make(chan struct{})
	var hogDone sync.WaitGroup
	plat.Register("hog", func(inv *Invocation, input Value) (Value, error) {
		<-release
		return dynamo.Null, nil
	}, 0)
	var delivered atomic.Int64
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		delivered.Add(1)
		return dynamo.Null, nil
	}, 0)
	hogDone.Add(1)
	go func() {
		defer hogDone.Done()
		plat.Invoke("hog", dynamo.Null) //nolint:errcheck
	}()
	for plat.Metrics().Invocations.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if _, err := broker.Enqueue("q", dynamo.NInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		processed, failed, err := m.PollOnce()
		if err != nil || processed != 2 || failed != 0 {
			t.Errorf("PollOnce under blocking saturation = (%d, %d, %v), want (2, 0, nil)", processed, failed, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("PollOnce blocked in entry admission while holding visibility claims")
	}
	if delivered.Load() != 2 {
		t.Fatalf("delivered %d, want 2", delivered.Load())
	}
	if b := broker.Metrics().Redelivered.Load(); b != 0 {
		t.Fatalf("burned %d redeliveries under saturation", b)
	}
	close(release)
	hogDone.Wait()
}

func TestMapperStartStopBackgroundLoop(t *testing.T) {
	broker, plat, m := newMapperRig(t, queue.Options{}, Options{},
		EventSourceOptions{Queue: "q", Function: "consume", BatchSize: 8, PollInterval: time.Millisecond})
	var n atomic.Int64
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		n.Add(1)
		return dynamo.Null, nil
	}, 0)
	m.Start()
	m.Start() // idempotent
	defer m.Stop()
	for i := 0; i < 20; i++ {
		if _, err := broker.Enqueue("q", dynamo.NInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop delivered %d/20", n.Load())
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	if depth, _ := broker.Depth("q"); depth != 0 {
		t.Fatalf("depth = %d after drain, want 0", depth)
	}
}

func TestMapperPoisonMessageDeadLetters(t *testing.T) {
	broker, plat, m := newMapperRig(t,
		queue.Options{VisibilityTimeout: time.Hour, MaxReceives: 3},
		Options{},
		EventSourceOptions{Queue: "q", Function: "consume", BatchSize: 1, NackOnError: true})
	var calls atomic.Int64
	plat.Register("consume", func(inv *Invocation, input Value) (Value, error) {
		calls.Add(1)
		inv.Kill("poison") // crashes on every delivery
		return dynamo.Null, nil
	}, 0)
	if _, err := broker.Enqueue("q", dynamo.S("poison")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := m.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("poison handler ran %d times, want 3 (the budget)", calls.Load())
	}
	dead, err := broker.DeadLetters("q")
	if err != nil || len(dead) != 1 {
		t.Fatalf("DeadLetters = %v, %v; want the poison message", dead, err)
	}
	if n, _ := broker.Depth("q"); n != 0 {
		t.Fatalf("depth = %d, want 0 after dead-lettering", n)
	}
}

func TestMapperRequiresQueueAndFunction(t *testing.T) {
	broker := queue.NewBroker(queue.BrokerOptions{Store: dynamo.NewStore()})
	if _, err := NewMapper(broker, New(Options{}), EventSourceOptions{Queue: "q"}); err == nil {
		t.Fatal("NewMapper accepted a mapping without a function")
	}
	if _, err := NewMapper(broker, New(Options{}), EventSourceOptions{Function: "f"}); err == nil {
		t.Fatal("NewMapper accepted a mapping without a queue")
	}
}
