package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/dynamo"
)

func TestSingleSSFReadWrite(t *testing.T) {
	f := newFixture(t)
	f.fn("counter", counterBody, "counter")
	for i := 1; i <= 3; i++ {
		out := f.mustInvoke("counter", dynamo.S("k"))
		if out.Int() != int64(i) {
			t.Fatalf("invocation %d returned %v", i, out)
		}
	}
	if got := f.readData("counter", "counter", "k"); got.Int() != 3 {
		t.Errorf("stored = %v", got)
	}
}

func TestReadOfNeverWrittenKeyIsNull(t *testing.T) {
	f := newFixture(t)
	f.fn("r", func(e *Env, in Value) (Value, error) {
		return e.Read("counter", "ghost")
	}, "counter")
	if out := f.mustInvoke("r", dynamo.Null); !out.IsNull() {
		t.Errorf("ghost read = %v", out)
	}
}

func TestCondWriteThroughEnv(t *testing.T) {
	f := newFixture(t)
	f.fn("cw", func(e *Env, in Value) (Value, error) {
		// Register-once semantics: succeed only if unset.
		ok, err := e.CondWrite("counter", "slot", in,
			dynamo.Or(dynamo.NotExists(dynamo.A(attrValue)), dynamo.Eq(dynamo.A(attrValue), dynamo.Null)))
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.Bool(ok), nil
	}, "counter")
	if out := f.mustInvoke("cw", dynamo.S("first")); !out.BoolVal() {
		t.Error("first claim failed")
	}
	if out := f.mustInvoke("cw", dynamo.S("second")); out.BoolVal() {
		t.Error("second claim succeeded")
	}
	if got := f.readData("cw", "counter", "slot"); got.Str() != "first" {
		t.Errorf("slot = %v", got)
	}
}

func TestSyncInvokeChain(t *testing.T) {
	// client → a → b → c, each adding its letter.
	f := newFixture(t)
	f.fn("c", func(e *Env, in Value) (Value, error) {
		return dynamo.S(in.Str() + "c"), nil
	})
	f.fn("b", func(e *Env, in Value) (Value, error) {
		out, err := e.SyncInvoke("c", dynamo.S(in.Str()+"b"))
		return out, err
	})
	f.fn("a", func(e *Env, in Value) (Value, error) {
		out, err := e.SyncInvoke("b", dynamo.S(in.Str()+"a"))
		return out, err
	})
	if out := f.mustInvoke("a", dynamo.S("·")); out.Str() != "·abc" {
		t.Errorf("chain = %q", out.Str())
	}
}

func TestSyncInvokeRecursion(t *testing.T) {
	// Workflows may contain cycles (§2.1): factorial by self-invocation.
	f := newFixture(t)
	f.fn("fact", func(e *Env, in Value) (Value, error) {
		n := in.Int()
		if n <= 1 {
			return dynamo.NInt(1), nil
		}
		sub, err := e.SyncInvoke("fact", dynamo.NInt(n-1))
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.NInt(n * sub.Int()), nil
	})
	if out := f.mustInvoke("fact", dynamo.NInt(5)); out.Int() != 120 {
		t.Errorf("5! = %v", out)
	}
}

func TestParallelBranchesDeterministicSteps(t *testing.T) {
	f := newFixture(t)
	f.fn("par", func(e *Env, in Value) (Value, error) {
		var a, b Value
		err := e.Parallel(
			func(sub *Env) error {
				var err error
				a, err = sub.SyncInvoke("leaf", dynamo.S("A"))
				return err
			},
			func(sub *Env) error {
				var err error
				b, err = sub.SyncInvoke("leaf", dynamo.S("B"))
				return err
			},
		)
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.S(a.Str() + b.Str()), nil
	})
	f.fn("leaf", func(e *Env, in Value) (Value, error) {
		return dynamo.S(in.Str() + "!"), nil
	})
	if out := f.mustInvoke("par", dynamo.Null); out.Str() != "A!B!" {
		t.Errorf("parallel = %q", out.Str())
	}
}

// TestStepKeysMatchSprintfAcrossWidth pins step keys — the sort keys of
// every log row — to the "%s.%06d" form they were first built with, on both
// sides of the 6-digit edge, in the root branch and in nested Parallel
// branches.
func TestStepKeysMatchSprintfAcrossWidth(t *testing.T) {
	check := func(e *Env) error {
		for _, start := range []int64{0, 9, 999_997, 9_999_998} {
			e.steps.Store(start)
			for n := start + 1; n <= start+3; n++ {
				if got, want := e.nextStepKey(), fmt.Sprintf("%s.%06d", e.branch, n); got != want {
					return fmt.Errorf("step %d of branch %s: %q, want %q", n, e.branch, got, want)
				}
			}
		}
		return nil
	}
	branches := make(chan string, 8)
	f := newFixture(t)
	f.fn("keys", func(e *Env, in Value) (Value, error) {
		leaf := func(sub *Env) error { branches <- sub.branch; return check(sub) }
		err := errors.Join(check(e), e.Parallel(leaf, func(sub *Env) error {
			return errors.Join(sub.Parallel(leaf, leaf), sub.Parallel(leaf))
		}))
		return dynamo.Null, err
	})
	f.mustInvoke("keys", dynamo.Null)
	close(branches)
	var names []string
	for b := range branches {
		names = append(names, b)
	}
	slices.Sort(names)
	if got := fmt.Sprint(names); got != "[0-1-0 0-1-1-1-0 0-1-1-1-1 0-1-1-2-0]" {
		t.Errorf("branch names %s", got)
	}
}

func TestAsyncInvokeRuns(t *testing.T) {
	f := newFixture(t)
	f.fn("bg", counterBody, "counter")
	f.fn("front", func(e *Env, in Value) (Value, error) {
		if err := e.AsyncInvoke("bg", dynamo.S("k")); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("accepted"), nil
	})
	if out := f.mustInvoke("front", dynamo.Null); out.Str() != "accepted" {
		t.Fatalf("front = %v", out)
	}
	f.plat.Drain()
	if got := f.readData("bg", "counter", "k"); got.Int() != 1 {
		t.Errorf("async effect = %v, want 1", got)
	}
}

func TestAsyncRunDeliveredTwiceExecutesOnce(t *testing.T) {
	// Fig 20: the run stub skips completed intents, so duplicate deliveries
	// (or IC restarts racing the run) are harmless.
	f := newFixture(t)
	var bodies atomic.Int64
	f.fn("bg", func(e *Env, in Value) (Value, error) {
		bodies.Add(1)
		return counterBody(e, in)
	}, "counter")
	f.fn("front", func(e *Env, in Value) (Value, error) {
		return dynamo.Null, e.AsyncInvoke("bg", dynamo.S("k"))
	})
	f.mustInvoke("front", dynamo.Null)
	f.plat.Drain()
	// Manufacture a duplicate delivery of the same run envelope.
	rt := f.rts["bg"]
	items, err := rt.store.Scan(rt.intentTable, dynamo.QueryOpts{})
	if err != nil || len(items) == 0 {
		t.Fatalf("intents: %v %d", err, len(items))
	}
	id := items[0][attrInstanceID].Str()
	run := envelope{Kind: kindAsyncRun, InstanceID: id, Input: dynamo.S("k"), Async: true}
	if _, err := f.plat.Invoke("bg", run.encode()); err != nil {
		t.Fatal(err)
	}
	if got := f.readData("bg", "counter", "k"); got.Int() != 1 {
		t.Errorf("counter = %v after duplicate delivery", got)
	}
	if bodies.Load() != 1 {
		t.Errorf("body ran %d times", bodies.Load())
	}
}

func TestIntentRetReturnedOnReinvocation(t *testing.T) {
	// Re-invoking a completed intent (same instance id) returns the stored
	// result without re-running the body.
	f := newFixture(t)
	var bodies atomic.Int64
	f.fn("once", func(e *Env, in Value) (Value, error) {
		bodies.Add(1)
		return dynamo.S("result"), nil
	})
	ev := envelope{Kind: kindCall, InstanceID: "fixed-instance", Input: dynamo.Null}
	out1, err := f.plat.Invoke("once", ev.encode())
	if err != nil {
		t.Fatal(err)
	}
	out2, err := f.plat.Invoke("once", ev.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out1.Str() != "result" || out2.Str() != "result" {
		t.Errorf("outs = %v %v", out1, out2)
	}
	if bodies.Load() != 1 {
		t.Errorf("body ran %d times", bodies.Load())
	}
}

func TestBodyErrorLeavesIntentPending(t *testing.T) {
	f := newFixture(t)
	boom := errors.New("boom")
	var fail atomic.Bool
	fail.Store(true)
	f.fn("flaky", func(e *Env, in Value) (Value, error) {
		if fail.Load() {
			return dynamo.Null, boom
		}
		return dynamo.S("ok"), nil
	})
	ev := envelope{Kind: kindCall, InstanceID: "flaky-1", Input: dynamo.Null}
	if _, err := f.plat.Invoke("flaky", ev.encode()); !errors.Is(err, boom) {
		t.Fatalf("first: %v", err)
	}
	exists, done, _, err := f.rts["flaky"].intentDone("flaky-1")
	if err != nil || !exists || done {
		t.Fatalf("intent state: exists=%v done=%v err=%v", exists, done, err)
	}
	fail.Store(false)
	f.recoverAll()
	_, done, ret, _ := f.rts["flaky"].intentDone("flaky-1")
	if !done || ret.Str() != "ok" {
		t.Errorf("after recovery: done=%v ret=%v", done, ret)
	}
}

func TestWorkflowEntryAdoptsRequestID(t *testing.T) {
	f := newFixture(t)
	f.fn("entry", func(e *Env, in Value) (Value, error) {
		return dynamo.S(e.InstanceID()), nil
	})
	out := f.mustInvoke("entry", dynamo.Null)
	if out.Str() == "" {
		t.Fatal("no instance id")
	}
	// The platform's Seq source mints "req-..." ids.
	if got := out.Str(); got[:4] != "req-" {
		t.Errorf("instance id %q does not come from the platform request id", got)
	}
}

func TestDistinctInstanceIDsPerInvocationOfSameSSF(t *testing.T) {
	// §3.3: every instance gets a distinct id, even same SSF same workflow.
	f := newFixture(t)
	f.fn("leaf", func(e *Env, in Value) (Value, error) {
		return dynamo.S(e.InstanceID()), nil
	})
	f.fn("driver", func(e *Env, in Value) (Value, error) {
		a, err := e.SyncInvoke("leaf", dynamo.Null)
		if err != nil {
			return dynamo.Null, err
		}
		b, err := e.SyncInvoke("leaf", dynamo.Null)
		if err != nil {
			return dynamo.Null, err
		}
		if a.Str() == b.Str() {
			return dynamo.Null, fmt.Errorf("same callee id twice: %s", a.Str())
		}
		if a.Str() == e.InstanceID() || b.Str() == e.InstanceID() {
			return dynamo.Null, fmt.Errorf("callee inherited caller id")
		}
		return dynamo.S("ok"), nil
	})
	f.mustInvoke("driver", dynamo.Null)
}

func TestSpuriousCallbackIgnored(t *testing.T) {
	// §4.5: a callback for an invoke-log entry that does not exist must be
	// detected and ignored.
	f := newFixture(t)
	f.fn("caller", func(e *Env, in Value) (Value, error) { return dynamo.Null, nil })
	cb := envelope{
		Kind:           kindCallback,
		CallerInstance: "no-such-instance",
		CallerStep:     "0.000001",
		CalleeID:       "ghost",
		Result:         dynamo.S("stale"),
		HasRes:         true,
	}
	if _, err := f.plat.Invoke("caller", cb.encode()); err != nil {
		t.Fatalf("spurious callback errored: %v", err)
	}
	// No invoke-log rows materialized.
	n, _ := f.store.TableItemCount(f.rts["caller"].invokeLog)
	if n != 0 {
		t.Errorf("%d invoke log rows created by spurious callback", n)
	}
}
