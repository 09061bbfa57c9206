package platform

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/raceflag"
	"repro/internal/uuid"
)

func echoHandler(_ *Invocation, in Value) (Value, error) { return in, nil }

func TestInvokeRoundTrip(t *testing.T) {
	p := New(Options{})
	p.Register("echo", echoHandler, 0)
	out, err := p.Invoke("echo", dynamo.S("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Str() != "hi" {
		t.Errorf("out = %v", out)
	}
	if _, err := p.Invoke("nope", dynamo.Null); !errors.Is(err, ErrNoSuchFunction) {
		t.Errorf("missing fn: %v", err)
	}
}

func TestRequestIDsUniqueAndDeterministicSource(t *testing.T) {
	p := New(Options{IDs: &uuid.Seq{Prefix: "req"}})
	var mu sync.Mutex
	var ids []string
	p.Register("f", func(inv *Invocation, _ Value) (Value, error) {
		mu.Lock()
		ids = append(ids, inv.RequestID())
		mu.Unlock()
		return dynamo.Null, nil
	}, 0)
	for i := 0; i < 3; i++ {
		if _, err := p.Invoke("f", dynamo.Null); err != nil {
			t.Fatal(err)
		}
	}
	if len(ids) != 3 || ids[0] != "req-000000000001" || ids[0] == ids[1] {
		t.Errorf("ids = %v", ids)
	}
}

func TestInvokeAsyncRuns(t *testing.T) {
	p := New(Options{})
	var ran atomic.Bool
	p.Register("bg", func(*Invocation, Value) (Value, error) {
		ran.Store(true)
		return dynamo.Null, nil
	}, 0)
	if err := p.InvokeAsync("bg", dynamo.Null); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if !ran.Load() {
		t.Error("async handler never ran")
	}
	if err := p.InvokeAsync("nope", dynamo.Null); !errors.Is(err, ErrNoSuchFunction) {
		t.Errorf("missing fn: %v", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	p := New(Options{})
	boom := errors.New("boom")
	p.Register("bad", func(*Invocation, Value) (Value, error) {
		return dynamo.Null, boom
	}, 0)
	if _, err := p.Invoke("bad", dynamo.Null); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

// invokers are the two ways a synchronous invocation runs its instance:
// inline, on the caller's goroutine, when nothing outside can end it early,
// and on a goroutine of its own when a live, cancelable context could. Both
// keep one contract: the same error and the same Metrics counts.
var invokers = []struct {
	name   string
	invoke func(p *Platform, name string, in Value) (Value, error)
}{
	{"Invoke", (*Platform).Invoke},
	{"InvokeCtx", func(p *Platform, name string, in Value) (Value, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		return p.InvokeCtx(ctx, name, in)
	}},
}

// deathCounts is the part of MetricsView an instance's death moves.
type deathCounts struct{ Crashes, Completions, Timeouts, Cancels int64 }

func countsOf(p *Platform) deathCounts {
	m := p.Metrics().Snapshot()
	return deathCounts{m.Crashes, m.Completions, m.Timeouts, m.Cancels}
}

// checkDeath asserts one invocation's error class and message, and the
// counts its platform holds afterwards.
func checkDeath(t *testing.T, p *Platform, err, class error, msg string, want deathCounts) {
	t.Helper()
	if !errors.Is(err, class) {
		t.Errorf("err = %v, want %v", err, class)
	} else if err.Error() != msg {
		t.Errorf("err = %q, want %q", err, msg)
	}
	if got := countsOf(p); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
}

func TestCrashInjectionAndRecovery(t *testing.T) {
	for _, iv := range invokers {
		t.Run(iv.name, func(t *testing.T) {
			plan := &CrashOnce{Function: "w", Label: "mid"}
			p := New(Options{Faults: plan})
			var attempts atomic.Int64
			p.Register("w", func(inv *Invocation, _ Value) (Value, error) {
				attempts.Add(1)
				inv.CrashPoint("mid", "")
				return dynamo.S("done"), nil
			}, 0)

			_, err := iv.invoke(p, "w", dynamo.Null)
			checkDeath(t, p, err, ErrCrashed, `platform: function instance crashed: w at "mid"`,
				deathCounts{Crashes: 1, Completions: 1})
			if !plan.Fired() {
				t.Fatal("plan did not fire")
			}
			out, err := iv.invoke(p, "w", dynamo.Null)
			if err != nil || out.Str() != "done" {
				t.Fatalf("second invoke: %v %v", out, err)
			}
			if attempts.Load() != 2 {
				t.Errorf("attempts = %d", attempts.Load())
			}
			if got, want := countsOf(p), (deathCounts{Crashes: 1, Completions: 2}); got != want {
				t.Errorf("counts = %+v, want %+v", got, want)
			}
		})
	}
}

func TestApplicationPanicBecomesCrash(t *testing.T) {
	for _, iv := range invokers {
		t.Run(iv.name, func(t *testing.T) {
			p := New(Options{})
			p.Register("p", func(*Invocation, Value) (Value, error) {
				panic("application bug")
			}, 0)
			_, err := iv.invoke(p, "p", dynamo.Null)
			checkDeath(t, p, err, ErrCrashed, "platform: function instance crashed: p: panic: application bug",
				deathCounts{Crashes: 1, Completions: 1})
		})
	}
}

func TestKill(t *testing.T) {
	for _, iv := range invokers {
		t.Run(iv.name, func(t *testing.T) {
			p := New(Options{})
			p.Register("k", func(inv *Invocation, _ Value) (Value, error) {
				inv.Kill("deliberate")
				return dynamo.Null, nil
			}, 0)
			_, err := iv.invoke(p, "k", dynamo.Null)
			checkDeath(t, p, err, ErrCrashed, `platform: function instance crashed: k at "deliberate"`,
				deathCounts{Crashes: 1, Completions: 1})
		})
	}
}

// goid is the id of the calling goroutine, from its stack header
// ("goroutine 18 [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

func TestInstanceRunsOnTheInvokersGoroutineUnlessInterruptible(t *testing.T) {
	var ran string
	record := func(*Invocation, Value) (Value, error) { ran = goid(); return dynamo.Null, nil }
	p := New(Options{AsyncDispatch: func(run func()) { run() }})
	p.Register("f", record, 0)
	p.Register("bounded", record, time.Minute)
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()

	for _, c := range []struct {
		name   string
		call   func() error
		inline bool
	}{
		{"Invoke", func() error { _, err := p.Invoke("f", dynamo.Null); return err }, true},
		{"InvokeInternal", func() error { _, err := p.InvokeInternal("f", dynamo.Null); return err }, true},
		{"InvokeCtx/uncancelable", func() error {
			_, err := p.InvokeCtx(context.WithValue(context.Background(), ctxKey{}, 1), "f", dynamo.Null)
			return err
		}, true},
		// The dispatcher runs the async instance here: its run starts no
		// goroutine of its own.
		{"InvokeAsync", func() error { return p.InvokeAsync("f", dynamo.Null) }, true},
		{"InvokeCtx/cancelable", func() error { _, err := p.InvokeCtx(cancelable, "f", dynamo.Null); return err }, false},
		{"Invoke/timeout", func() error { _, err := p.Invoke("bounded", dynamo.Null); return err }, false},
	} {
		ran = ""
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if inline := ran == goid(); inline != c.inline {
			t.Errorf("%s: instance on the invoker's goroutine = %v, want %v", c.name, inline, c.inline)
		}
	}
}

type ctxKey struct{}

// TestNoopInvokeAllocs pins what the platform itself costs an invocation:
// the Invocation, and no request id for a handler that never asks for one.
// While every instance ran on a goroutine of its own, the goroutine, its
// closure and the result channel made it 5; while every instance minted its
// request id, 2.
func TestNoopInvokeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	p := New(Options{IDs: &uuid.Seq{Prefix: "req"}})
	p.Register("noop", func(*Invocation, Value) (Value, error) { return dynamo.Null, nil }, 0)
	got := testing.AllocsPerRun(1000, func() {
		if _, err := p.Invoke("noop", dynamo.Null); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("no-op Invoke: %.0f allocations, want 1 (the Invocation)", got)
	}
}

func TestTimeoutKillsAtCrashPoint(t *testing.T) {
	p := New(Options{})
	var reachedEnd atomic.Bool
	p.Register("slow", func(inv *Invocation, _ Value) (Value, error) {
		time.Sleep(50 * time.Millisecond)
		inv.CrashPoint("after-sleep", "") // deadline passed: instance dies here
		reachedEnd.Store(true)
		return dynamo.Null, nil
	}, 10*time.Millisecond)
	_, err := p.Invoke("slow", dynamo.Null)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if reachedEnd.Load() {
		t.Error("instance survived past its deadline")
	}
}

func TestConcurrencyLimitQueues(t *testing.T) {
	p := New(Options{ConcurrencyLimit: 2})
	var inFlight, maxInFlight atomic.Int64
	p.Register("busy", func(*Invocation, Value) (Value, error) {
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
		return dynamo.Null, nil
	}, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke("busy", dynamo.Null); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if maxInFlight.Load() > 2 {
		t.Errorf("max in flight = %d, want <= 2", maxInFlight.Load())
	}
}

func TestConcurrencyLimitRejects(t *testing.T) {
	p := New(Options{ConcurrencyLimit: 1, RejectWhenSaturated: true})
	release := make(chan struct{})
	p.Register("hold", func(*Invocation, Value) (Value, error) {
		<-release
		return dynamo.Null, nil
	}, 0)
	done := make(chan error, 1)
	go func() {
		_, err := p.Invoke("hold", dynamo.Null)
		done <- err
	}()
	// Wait until the first invocation occupies the slot.
	for i := 0; i < 100 && p.Metrics().Invocations.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	_, err := p.Invoke("hold", dynamo.Null)
	if !errors.Is(err, ErrThrottled) {
		t.Errorf("second invoke: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Error(err)
	}
	if p.Metrics().Throttles.Load() != 1 {
		t.Errorf("throttles = %d", p.Metrics().Throttles.Load())
	}
}

func TestColdWarmStarts(t *testing.T) {
	p := New(Options{ColdStart: time.Millisecond, WarmStart: 0})
	p.Register("f", echoHandler, 0)
	p.Invoke("f", dynamo.Null)
	p.Invoke("f", dynamo.Null)
	p.Invoke("f", dynamo.Null)
	if got := p.Metrics().ColdStarts.Load(); got != 1 {
		t.Errorf("cold starts = %d, want 1 (sequential invokes reuse the warm worker)", got)
	}
	// Two simultaneous invocations need two workers: one more cold start.
	block := make(chan struct{})
	p.Register("g", func(*Invocation, Value) (Value, error) {
		<-block
		return dynamo.Null, nil
	}, 0)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Invoke("g", dynamo.Null)
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(block)
	wg.Wait()
	if got := p.Metrics().ColdStarts.Load(); got != 3 {
		t.Errorf("cold starts = %d, want 3", got)
	}
}

func TestDriverFunctionComposition(t *testing.T) {
	// A driver function invoking two other functions — the workflow
	// composition style from §2.1.
	p := New(Options{})
	p.Register("add1", func(_ *Invocation, in Value) (Value, error) {
		return dynamo.N(in.Num() + 1), nil
	}, 0)
	p.Register("double", func(_ *Invocation, in Value) (Value, error) {
		return dynamo.N(in.Num() * 2), nil
	}, 0)
	p.Register("driver", func(inv *Invocation, in Value) (Value, error) {
		a, err := inv.Platform().Invoke("add1", in)
		if err != nil {
			return dynamo.Null, err
		}
		return inv.Platform().Invoke("double", a)
	}, 0)
	out, err := p.Invoke("driver", dynamo.N(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Num() != 12 {
		t.Errorf("out = %v, want 12", out)
	}
}

func TestCrashNthOpSweep(t *testing.T) {
	// Count ops, then crash at each in turn; the function has 3 crash
	// points.
	counter := &OpCounter{}
	p := New(Options{Faults: counter})
	handler := func(inv *Invocation, _ Value) (Value, error) {
		inv.CrashPoint("a", "")
		inv.CrashPoint("b", "")
		inv.CrashPoint("c", "")
		return dynamo.S("ok"), nil
	}
	p.Register("f", handler, 0)
	if _, err := p.Invoke("f", dynamo.Null); err != nil {
		t.Fatal(err)
	}
	if counter.Max("f") != 3 {
		t.Fatalf("op count = %d", counter.Max("f"))
	}
	for n := 1; n <= 3; n++ {
		plan := &CrashNthOp{Function: "f", N: n}
		p2 := New(Options{Faults: plan})
		p2.Register("f", handler, 0)
		if _, err := p2.Invoke("f", dynamo.Null); !errors.Is(err, ErrCrashed) {
			t.Errorf("n=%d: %v", n, err)
		}
		// Re-execution succeeds (plan disarmed).
		if out, err := p2.Invoke("f", dynamo.Null); err != nil || out.Str() != "ok" {
			t.Errorf("n=%d retry: %v %v", n, out, err)
		}
	}
}

func TestCrashProbRespectsFunctionFilter(t *testing.T) {
	plan := &CrashProb{Function: "target", P: 1.0}
	if plan.ShouldCrash("other", "x", 1) {
		t.Error("crashed wrong function")
	}
	if !plan.ShouldCrash("target", "x", 1) {
		t.Error("did not crash target with P=1")
	}
}

func TestPlansComposite(t *testing.T) {
	a := &CrashOnce{Function: "f", Label: "x"}
	b := &CrashOnce{Function: "g", Label: "y"}
	ps := Plans{a, b}
	if !ps.ShouldCrash("f", "x", 1) || !ps.ShouldCrash("g", "y", 1) {
		t.Error("composite missed")
	}
	if ps.ShouldCrash("f", "x", 1) {
		t.Error("CrashOnce fired twice under composite")
	}
}
