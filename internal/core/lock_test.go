package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// Standalone locks (§6.1, outside transactions): owned by intents, so a
// crashed holder's re-execution resumes ownership instead of deadlocking.

func TestLockMutualExclusion(t *testing.T) {
	f := newFixture(t, withConfig(Config{RowCap: 8, T: DefaultT, LockRetryMax: 400, LockRetryBase: 100 * time.Microsecond}))
	f.fn("cs", func(e *Env, in Value) (Value, error) {
		if err := e.Lock("kv", "mutex"); err != nil {
			return dynamo.Null, err
		}
		// Non-atomic read-modify-write protected by the lock.
		v, err := e.Read("kv", "shared")
		if err != nil {
			return dynamo.Null, err
		}
		time.Sleep(time.Millisecond) // widen the race window
		if err := e.Write("kv", "shared", dynamo.NInt(v.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		if err := e.Unlock("kv", "mutex"); err != nil {
			return dynamo.Null, err
		}
		return dynamo.Null, nil
	}, "kv")
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.mustInvoke("cs", dynamo.Null)
		}()
	}
	wg.Wait()
	if got := f.readData("cs", "kv", "shared"); got.Int() != workers {
		t.Errorf("shared = %v, want %d (mutual exclusion violated)", got, workers)
	}
	_, lock, _, _ := f.rts["cs"].layer().stateRead("kv", "mutex")
	if !lock.IsNull() {
		t.Errorf("lock leaked: %v", lock)
	}
}

func TestLockReentrantForSameIntent(t *testing.T) {
	f := newFixture(t)
	f.fn("re", func(e *Env, in Value) (Value, error) {
		if err := e.Lock("kv", "m"); err != nil {
			return dynamo.Null, err
		}
		// Re-acquiring under the same intent succeeds (the §6.1 condition
		// admits the current owner) — this is what makes replay safe.
		if err := e.Lock("kv", "m"); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("ok"), e.Unlock("kv", "m")
	}, "kv")
	if out := f.mustInvoke("re", dynamo.Null); out.Str() != "ok" {
		t.Fatalf("out = %v", out)
	}
}

func TestLockSurvivesHolderCrashAndRecovers(t *testing.T) {
	// The holder crashes inside the critical section; its re-execution
	// resumes ownership (locks-with-intent) and completes; the lock is
	// finally released and other instances proceed.
	plan := &platform.CrashOnce{Function: "cs", Label: "mid-critical"}
	f := newFixture(t, withFaults(plan),
		withConfig(Config{RowCap: 8, T: DefaultT, ICMinAge: time.Millisecond, LockRetryMax: 400}))
	f.fn("cs", func(e *Env, in Value) (Value, error) {
		if err := e.Lock("kv", "m"); err != nil {
			return dynamo.Null, err
		}
		e.crash("mid-critical", "")
		v, err := e.Read("kv", "n")
		if err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("kv", "n", dynamo.NInt(v.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("ok"), e.Unlock("kv", "m")
	}, "kv")
	if _, err := f.invoke("cs", dynamo.Null); !errors.Is(err, platform.ErrCrashed) {
		t.Fatalf("first attempt: %v", err)
	}
	// The lock is held by the crashed intent.
	_, lock, _, _ := f.rts["cs"].layer().stateRead("kv", "m")
	if lock.IsNull() {
		t.Fatal("lock not held after crash")
	}
	f.recoverAll()
	if got := f.readData("cs", "kv", "n"); got.Int() != 1 {
		t.Errorf("n = %v, want 1", got)
	}
	_, lock, _, _ = f.rts["cs"].layer().stateRead("kv", "m")
	if !lock.IsNull() {
		t.Errorf("lock leaked after recovery: %v", lock)
	}
	// A fresh instance can now take the lock.
	if out := f.mustInvoke("cs", dynamo.Null); out.Str() != "ok" {
		t.Errorf("post-recovery: %v", out)
	}
}

func TestLockRetryBudgetExhausted(t *testing.T) {
	// Two instances of the same SSF contend: the second exhausts its
	// bounded retry budget (retries consume log entries, so Lock cannot
	// spin forever) and reports ErrLockUnavailable.
	f := newFixture(t, withConfig(Config{RowCap: 64, T: DefaultT, LockRetryMax: 3, LockRetryBase: 100 * time.Microsecond}))
	hold := make(chan struct{})
	entered := make(chan struct{})
	f.fn("cs", func(e *Env, in Value) (Value, error) {
		switch in.Str() {
		case "hold":
			if err := e.Lock("kv", "m"); err != nil {
				return dynamo.Null, err
			}
			close(entered)
			<-hold
			return dynamo.S("held"), e.Unlock("kv", "m")
		default: // try
			err := e.Lock("kv", "m")
			if errors.Is(err, ErrLockUnavailable) {
				return dynamo.S("gave up"), nil
			}
			if err != nil {
				return dynamo.Null, err
			}
			return dynamo.S("acquired"), e.Unlock("kv", "m")
		}
	}, "kv")
	done := make(chan struct{})
	go func() {
		f.mustInvoke("cs", dynamo.S("hold"))
		close(done)
	}()
	<-entered
	if out := f.mustInvoke("cs", dynamo.S("try")); out.Str() != "gave up" {
		t.Errorf("contender = %v, want gave up", out)
	}
	close(hold)
	<-done
	// With the lock free again, acquisition succeeds.
	if out := f.mustInvoke("cs", dynamo.S("try")); out.Str() != "acquired" {
		t.Errorf("after release = %v", out)
	}
}
