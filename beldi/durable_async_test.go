package beldi_test

import (
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// These tests cover the durable (queue-backed) AsyncInvoke path end to end:
// the intent-table registration of §4.5 paired with a durable queue message,
// drained by platform event-source mappers, with Beldi's instance-id dedup
// turning at-least-once delivery into exactly-once execution.

type durableRig struct {
	store storage.Backend
	plat  *platform.Platform
	d     *beldi.Deployment
	da    *beldi.DurableAsync
}

func newDurableRig(t *testing.T, parentBody, childBody beldi.Body) *durableRig {
	t.Helper()
	store := storagetest.Open(t)
	plat := platform.New(platform.Options{})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat,
		Config: beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Nanosecond},
	})
	d.Function("parent", parentBody)
	d.Function("child", childBody, "state")
	da := d.EnableDurableAsync(beldi.DurableAsyncOptions{
		VisibilityTimeout: 20 * time.Millisecond,
		BatchSize:         4,
	})
	t.Cleanup(d.Stop)
	return &durableRig{store: store, plat: plat, d: d, da: da}
}

func asyncParent(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if err := e.AsyncInvoke("child", in); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("registered"), nil
}

func countingChild(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	// Batched mappers deliver concurrently, so the shared counter's
	// read-modify-write needs the item lock to count every run.
	if err := e.Lock("state", "count"); err != nil {
		return beldi.Null, err
	}
	n, err := e.Read("state", "count")
	if err != nil {
		return beldi.Null, err
	}
	if err := e.Write("state", "count", beldi.Int(n.Int()+1)); err != nil {
		return beldi.Null, err
	}
	if err := e.Unlock("state", "count"); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("done"), nil
}

func (r *durableRig) count(t *testing.T) int64 {
	t.Helper()
	v, err := beldi.PeekState(r.d.Runtime("child"), "state", "count")
	if err != nil {
		t.Fatal(err)
	}
	return v.Int()
}

func TestDurableAsyncDeliversThroughQueue(t *testing.T) {
	r := newDurableRig(t, asyncParent, countingChild)

	if _, err := r.d.Invoke("parent", beldi.Null); err != nil {
		t.Fatal(err)
	}
	// The handoff is durable: nothing has polled yet, so the work sits in
	// the child's invocation queue rather than any goroutine.
	if depth, _ := r.da.Depth(); depth != 1 {
		t.Fatalf("queue depth = %d before polling, want 1", depth)
	}
	if r.count(t) != 0 {
		t.Fatal("child ran before any mapper poll")
	}
	processed, failed, err := r.da.PollAll()
	if err != nil || processed != 1 || failed != 0 {
		t.Fatalf("PollAll = (%d, %d, %v), want (1, 0, nil)", processed, failed, err)
	}
	if got := r.count(t); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if depth, _ := r.da.Depth(); depth != 0 {
		t.Fatalf("queue depth = %d after delivery, want 0", depth)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAsyncDuplicateEnqueueIsDeduped crashes the caller after the
// enqueue: its re-execution (by the intent collector) cannot tell whether
// the message made it out, re-enqueues, and the callee's intent dedup
// absorbs the duplicate — at-least-once delivery, exactly-once execution.
func TestDurableAsyncDuplicateEnqueueIsDeduped(t *testing.T) {
	r := newDurableRig(t, asyncParent, countingChild)
	r.plat.SetFaults(&platform.CrashOnce{Function: "parent", Label: "ainvoke:post:0.000001"})

	if _, err := r.d.Invoke("parent", beldi.Null); err == nil {
		t.Fatal("expected the injected crash to surface")
	}
	time.Sleep(60 * time.Millisecond) // age past ICMinAge
	if _, err := r.d.Runtime("parent").RunIntentCollector(); err != nil {
		t.Fatal(err)
	}
	r.plat.Drain()
	if depth, _ := r.da.Depth(); depth != 2 {
		t.Fatalf("queue depth = %d, want 2 (original + re-executed enqueue)", depth)
	}
	if _, err := r.da.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t); got != 1 {
		t.Fatalf("count = %d, want exactly 1 despite duplicate message", got)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAsyncSurvivesCallerCrashBeforeFire crashes the caller between
// intent registration and the enqueue — the Figure 20 window where the seed's
// in-process handoff would simply never happen. The registered intent plus
// collector re-execution produces the durable message, and the workflow
// completes exactly once.
func TestDurableAsyncSurvivesCallerCrashBeforeFire(t *testing.T) {
	r := newDurableRig(t, asyncParent, countingChild)
	r.plat.SetFaults(&platform.CrashOnce{Function: "parent", Label: "ainvoke:mid:0.000001"})

	if _, err := r.d.Invoke("parent", beldi.Null); err == nil {
		t.Fatal("expected the injected crash to surface")
	}
	if depth, _ := r.da.Depth(); depth != 0 {
		t.Fatalf("queue depth = %d, want 0 (crash happened before the enqueue)", depth)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := r.d.Runtime("parent").RunIntentCollector(); err != nil {
		t.Fatal(err)
	}
	r.plat.Drain()
	if _, err := r.da.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// TestDurableAsyncBackgroundMappers runs the mappers' own poll loops:
// fan out many async invocations and wait for all to land exactly once.
func TestDurableAsyncBackgroundMappers(t *testing.T) {
	markingChild := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		key := in.Map()["key"].Str()
		n, err := e.Read("state", key)
		if err != nil {
			return beldi.Null, err
		}
		if err := e.Write("state", key, beldi.Int(n.Int()+1)); err != nil {
			return beldi.Null, err
		}
		return beldi.Null, nil
	}
	r := newDurableRig(t, asyncParent, markingChild)
	r.da.Start()
	defer r.da.Stop()

	const n = 24
	for i := 0; i < n; i++ {
		if _, err := r.d.Invoke("parent", beldi.Map(map[string]beldi.Value{
			"key": beldi.Str(key(i)),
		})); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if depth, _ := r.da.Depth(); depth == 0 {
			done := true
			for i := 0; i < n; i++ {
				v, err := beldi.PeekState(r.d.Runtime("child"), "state", key(i))
				if err != nil {
					t.Fatal(err)
				}
				if v.Int() > 1 {
					t.Fatalf("key %s executed %d times", key(i), v.Int())
				}
				if v.Int() != 1 {
					done = false
				}
			}
			if done {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("background mappers did not drain the fan-out in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func key(i int) string {
	return "k" + string(rune('a'+i%26)) + string(rune('a'+i/26))
}

// TestDurableAsyncPromiseFanIn runs durable promises over the queue-backed
// transport: the fan-out's run envelopes become queue messages (carrying
// the reply coordinates), background mappers deliver them, and the
// parent's awaits resolve from the results posted into its invoke log —
// promises and durable async compose.
func TestDurableAsyncPromiseFanIn(t *testing.T) {
	promiseParent := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		ps := make([]*beldi.Promise, 3)
		for i := range ps {
			p, err := e.AsyncInvokePromise("child", beldi.Null)
			if err != nil {
				return beldi.Null, err
			}
			ps[i] = p
		}
		outs, err := e.AwaitAll(ps...)
		if err != nil {
			return beldi.Null, err
		}
		return beldi.Int(int64(len(outs))), nil
	}
	r := newDurableRig(t, promiseParent, countingChild)
	r.da.Start()
	defer r.da.Stop()

	out, err := r.d.Invoke("parent", beldi.Null)
	if err != nil {
		t.Fatal(err)
	}
	if out.Int() != 3 {
		t.Fatalf("fan-in resolved %v promises, want 3", out)
	}
	r.plat.Drain()
	if got := r.count(t); got != 3 {
		t.Fatalf("child ran %d times, want 3", got)
	}
	if err := r.d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}
