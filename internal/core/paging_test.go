package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
)

// Appendix A bounds the collectors' per-run work because they are SSFs with
// execution timeouts themselves: limited runs must make progress and later
// runs must finish the job.

func TestICPageLimitBoundsAndResumes(t *testing.T) {
	f := newFixture(t, withConfig(Config{
		RowCap: 4, T: time.Hour, ICMinAge: time.Millisecond, ICPageLimit: 2,
	}))
	var fail atomic.Bool
	fail.Store(true)
	f.fn("flaky", func(e *Env, in Value) (Value, error) {
		if fail.Load() {
			return dynamo.Null, errors.New("boom")
		}
		return counterBody(e, in)
	}, "counter")
	// Five failed instances pending, each incrementing its own key (page-
	// mates restart concurrently; exactly-once does not serialize them).
	for i := 0; i < 5; i++ {
		f.invokeAs("flaky", fmt.Sprintf("flaky-%d", i), dynamo.S(fmt.Sprintf("k%d", i))) //nolint:errcheck // its row stays pending
	}
	fail.Store(false)
	time.Sleep(2 * time.Millisecond)
	rt := f.rts["flaky"]
	n1, err := rt.RunIntentCollector()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 2 {
		t.Errorf("first page restarted %d, want 2", n1)
	}
	f.plat.Drain()
	// Subsequent pages finish the rest; pages bound the per-run work, and
	// later runs resume where earlier runs left off.
	recovered := func() int {
		n := 0
		for i := 0; i < 5; i++ {
			if f.readData("flaky", "counter", fmt.Sprintf("k%d", i)).Int() == 1 {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for recovered() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/5 intents recovered via paged collection", recovered())
		}
		time.Sleep(2 * time.Millisecond)
		if _, err := rt.RunIntentCollector(); err != nil {
			t.Fatal(err)
		}
		f.plat.Drain()
	}
}

func TestGCPageLimitBoundsAndResumes(t *testing.T) {
	f := newFixture(t, withConfig(Config{
		RowCap: 4, T: 2 * time.Millisecond, ICMinAge: time.Millisecond, GCPageLimit: 3,
	}))
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	for i := 0; i < 8; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	// Stamp pass, then aged paged reclamation.
	if _, err := rt.RunGarbageCollector(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * time.Millisecond)
	st, err := rt.RunGarbageCollector()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recycled != 3 {
		t.Errorf("first aged pass recycled %d, want page of 3", st.Recycled)
	}
	remaining := 8 - st.IntentsDeleted
	for i := 0; i < 10 && remaining > 0; i++ {
		time.Sleep(4 * time.Millisecond)
		st, err := rt.RunGarbageCollector()
		if err != nil {
			t.Fatal(err)
		}
		remaining -= st.IntentsDeleted
	}
	if n, _ := f.store.TableItemCount(rt.intentTable); n != 0 {
		t.Errorf("%d intents survive paged GC", n)
	}
	if got := f.readData("w", "counter", "k"); got.Int() != 8 {
		t.Errorf("counter = %v", got)
	}
}
