package platform

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
)

// Throttling under RejectWhenSaturated: the admission behavior the paper's
// saturation experiments depend on.

// saturate occupies every slot of p with "hold" instances and returns the
// release function.
func saturate(t *testing.T, p *Platform, slots int) func() {
	t.Helper()
	release := make(chan struct{})
	var wg sync.WaitGroup
	p.Register("hold", func(*Invocation, Value) (Value, error) {
		<-release
		return dynamo.Null, nil
	}, 0)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke("hold", dynamo.Null); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.running.Load() < int64(slots) {
		if time.Now().After(deadline) {
			t.Fatal("could not saturate the platform")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		close(release)
		wg.Wait()
	}
}

func TestRejectWhenSaturatedCountsEveryThrottle(t *testing.T) {
	p := New(Options{ConcurrencyLimit: 2, RejectWhenSaturated: true})
	p.Register("f", echoHandler, 0)
	release := saturate(t, p, 2)

	const attempts = 7
	for i := 0; i < attempts; i++ {
		if _, err := p.Invoke("f", dynamo.Null); !errors.Is(err, ErrThrottled) {
			t.Fatalf("attempt %d: err = %v, want ErrThrottled", i, err)
		}
	}
	if got := p.Metrics().Throttles.Load(); got != attempts {
		t.Errorf("Throttles = %d, want %d", got, attempts)
	}
	// Throttled attempts must not leak admission slots: after release, the
	// account drains back to zero and fresh invocations are admitted.
	release()
	if _, err := p.Invoke("f", dynamo.Null); err != nil {
		t.Errorf("post-release invoke: %v", err)
	}
	if cur := p.running.Load(); cur != 0 {
		t.Errorf("running = %d after quiescence, want 0 (leaked slot)", cur)
	}
}

func TestInternalCallsBypassSaturationRejection(t *testing.T) {
	p := New(Options{ConcurrencyLimit: 1, RejectWhenSaturated: true})
	p.Register("f", echoHandler, 0)
	release := saturate(t, p, 1)
	defer release()

	// Internal (SSF-to-SSF) calls never block and never throttle at the
	// account limit — the deadlock-avoidance rule. They run even while entry
	// admission is rejecting.
	if _, err := p.InvokeInternal("f", dynamo.S("x")); err != nil {
		t.Errorf("internal call under saturation: %v", err)
	}
	if _, err := p.Invoke("f", dynamo.Null); !errors.Is(err, ErrThrottled) {
		t.Errorf("entry call under saturation: %v, want ErrThrottled", err)
	}
}

func TestAsyncEntryThrottledSilently(t *testing.T) {
	p := New(Options{ConcurrencyLimit: 1, RejectWhenSaturated: true})
	var ran atomic.Int64
	p.Register("f", func(*Invocation, Value) (Value, error) {
		ran.Add(1)
		return dynamo.Null, nil
	}, 0)
	release := saturate(t, p, 1)

	// Fire-and-forget entry invocations are admitted or dropped without a
	// caller-visible error (the provider behavior Beldi's registered async
	// intent exists to fix).
	if err := p.InvokeAsync("f", dynamo.Null); err != nil {
		t.Fatalf("InvokeAsync returned %v, want nil (errors are dropped by design)", err)
	}
	p.Drain()
	if ran.Load() != 0 {
		t.Fatal("async invocation ran despite saturation")
	}
	if p.Metrics().Throttles.Load() == 0 {
		t.Error("dropped async invocation not counted as a throttle")
	}
	release()
	if err := p.InvokeAsync("f", dynamo.Null); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if ran.Load() != 1 {
		t.Errorf("post-release async ran %d times, want 1", ran.Load())
	}
}

func TestSaturationHighWaterStaysAtLimit(t *testing.T) {
	p := New(Options{ConcurrencyLimit: 3, RejectWhenSaturated: true})
	p.Register("f", echoHandler, 0)
	release := saturate(t, p, 3)
	for i := 0; i < 5; i++ {
		p.Invoke("f", dynamo.Null) //nolint:errcheck // expected throttles
	}
	release()
	if hw := p.Metrics().ConcurrencyHighWater.Load(); hw > 3 {
		t.Errorf("high water = %d, want <= limit 3", hw)
	}
}
