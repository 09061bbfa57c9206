package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// End-to-end integration: a workflow under concurrent load with the intent
// collector, the garbage collector, and probabilistic crashes all running
// at once — the full Figure 1 architecture exercising every mechanism
// together. Invariants: per-key totals exactly match the acknowledged
// requests, logs stay bounded, and no lock survives.

func TestIntegrationEverythingAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short")
	}
	// T must exceed the longest possible instance lifetime (§5's synchrony
	// assumption) — the platform enforces it as the execution timeout, and
	// the GC's safety window is derived from it. Stragglers running past T
	// without enforcement could replay against already-collected logs. Like
	// the paper's 15-minute bound, T is far above any plausible instance
	// lifetime (including lock-contention waits).
	const maxLifetime = time.Second
	plan := &platform.CrashProb{P: 0.01, Seed: 3}
	f := newFixture(t, withFaults(plan), withConfig(Config{
		RowCap: 4, T: maxLifetime, ICMinAge: 5 * time.Millisecond,
		LockRetryMax: 400, LockRetryBase: 200 * time.Microsecond,
	}))
	f.fn("ledger", func(e *Env, in Value) (Value, error) {
		key := in.Map()["key"].Str()
		amt := in.Map()["amt"].Int()
		// Exactly-once makes each instance's effects happen once; making
		// concurrent read-modify-writes to the same key serializable is the
		// job of §6.1's locks — this is their canonical use.
		if err := e.Lock("acct", key); err != nil {
			return dynamo.Null, err
		}
		v, err := e.Read("acct", key)
		if err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("acct", key, dynamo.NInt(v.Int()+amt)); err != nil {
			return dynamo.Null, err
		}
		if err := e.Unlock("acct", key); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("ok"), nil
	}, "acct")
	f.fn("front", func(e *Env, in Value) (Value, error) {
		if _, err := e.SyncInvoke("ledger", in); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("ack"), nil
	})
	// Enforce the execution timeout the synchrony assumption rests on.
	f.plat.Register("ledger", f.rts["ledger"].Handler(), maxLifetime)
	f.plat.Register("front", f.rts["front"].Handler(), maxLifetime)

	// Waves of concurrent requests bound the instantaneous lock contention
	// so no instance's lifetime approaches T. Collectors are pumped inline
	// at wave boundaries: crashed instances from wave N get collected while
	// waves N+1.. still load the system, without a background goroutine
	// racing the final recovery below (the old shape relaunched intents
	// concurrently with the quiescence check, which needed a bounded-retry
	// workaround and still flaked; the adversarial-interleaving version of
	// this test now lives in internal/sim's TestSimEverythingAtOnce, where
	// the schedule is seeded and replayable).
	const keys, requests, wave = 3, 60, 12
	expected := make([]int64, keys)
	rng := rand.New(rand.NewSource(17))
	for base := 0; base < requests; base += wave {
		var wg sync.WaitGroup
		for i := base; i < base+wave && i < requests; i++ {
			k := rng.Intn(keys)
			amt := int64(1 + rng.Intn(9))
			expected[k] += amt
			wg.Add(1)
			go func(i, k int, amt int64) {
				defer wg.Done()
				ev := envelope{Kind: kindCall, InstanceID: fmt.Sprintf("int-%03d", i),
					Input: dynamo.M(map[string]Value{
						"key": dynamo.S(fmt.Sprintf("k%d", k)),
						"amt": dynamo.NInt(amt),
					})}
				// Stable request id with bounded client retries: every
				// acknowledged (or eventually collected) request counts once.
				for attempt := 0; attempt < 30; attempt++ {
					if _, err := f.plat.Invoke("front", ev.encode()); err == nil {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}(i, k, amt)
		}
		wg.Wait()
		for _, rt := range f.rts {
			rt.RunIntentCollector()  //nolint:errcheck // chaos is still armed
			rt.RunGarbageCollector() //nolint:errcheck
		}
	}
	f.plat.Drain()
	plan.P = 0
	// With the dice disarmed and no concurrent collector, recoverAll drives
	// collection to quiescence deterministically: each round relaunches
	// every pending intent synchronously and the round count is bounded.
	f.recoverAll()

	// Recovery must leave no pending intents before the GC assertions mean
	// anything — one strict scan, no retry loop.
	for _, rt := range f.rts {
		items, err := f.store.Scan(rt.intentTable, dynamo.QueryOpts{
			Filter: dynamo.Eq(dynamo.A(attrDone), dynamo.Bool(false)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 0 {
			t.Fatalf("%s: %d intents still pending after recovery", rt.fn, len(items))
		}
	}

	for k := 0; k < keys; k++ {
		got := f.readData("ledger", "acct", fmt.Sprintf("k%d", k))
		if got.Int() != expected[k] {
			t.Errorf("k%d = %v, want %d", k, got, expected[k])
		}
	}

	// After aging past T and two more GC passes, logs are bounded.
	time.Sleep(maxLifetime + 10*time.Millisecond)
	f.gcAll()
	time.Sleep(maxLifetime + 10*time.Millisecond)
	f.gcAll()
	for _, rt := range f.rts {
		for _, tbl := range []string{rt.readLog, rt.invokeLog, rt.intentTable} {
			n, _ := f.store.TableItemCount(tbl)
			if n != 0 {
				t.Errorf("%s: %d rows survive full collection", tbl, n)
			}
		}
	}
	// The DAAL stays shallow for every key.
	d := daal{rt: f.rts["ledger"], table: f.rts["ledger"].dataTable("acct")}
	for k := 0; k < keys; k++ {
		_, order, err := d.chain(fmt.Sprintf("k%d", k))
		if err != nil {
			t.Fatal(err)
		}
		if len(order) > 4 {
			t.Errorf("k%d chain = %d rows after GC", k, len(order))
		}
	}
	// Full structural audit of every runtime's durable state.
	for _, rt := range f.rts {
		if err := Fsck(rt); err != nil {
			t.Errorf("fsck after chaos: %v", err)
		}
	}
}
