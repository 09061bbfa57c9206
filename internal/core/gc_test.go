package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// gcFixture builds a single-SSF fixture with a tiny T so tests can age
// intents quickly.
func gcFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixture(t, withConfig(Config{
		RowCap: 2, T: 5 * time.Millisecond, ICMinAge: time.Millisecond,
	}))
}

// age sleeps past T.
func age() { time.Sleep(8 * time.Millisecond) }

func TestGCRecyclesFinishedIntents(t *testing.T) {
	f := gcFixture(t)
	f.fn("w", counterBody, "counter")
	for i := 0; i < 3; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	rt := f.rts["w"]
	if n, _ := f.store.TableItemCount(rt.intentTable); n != 3 {
		t.Fatalf("%d intents", n)
	}
	// First pass stamps finish times; nothing recycled yet.
	st, err := rt.RunGarbageCollector()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recycled != 0 || st.IntentsDeleted != 0 {
		t.Errorf("first pass recycled %d deleted %d", st.Recycled, st.IntentsDeleted)
	}
	age()
	st, err = rt.RunGarbageCollector()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recycled != 3 || st.IntentsDeleted != 3 {
		t.Errorf("second pass recycled %d deleted %d, want 3/3", st.Recycled, st.IntentsDeleted)
	}
	if n, _ := f.store.TableItemCount(rt.intentTable); n != 0 {
		t.Errorf("%d intents survive", n)
	}
	if n, _ := f.store.TableItemCount(rt.readLog); n != 0 {
		t.Errorf("%d read log rows survive", n)
	}
}

func TestGCKeepsDAALShallow(t *testing.T) {
	// Sustained writes to one key with periodic GC: the chain length must
	// stay bounded near head+tail, while without GC it grows linearly —
	// the Figure 16 mechanism.
	f := gcFixture(t)
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	d := daal{rt: rt, table: rt.dataTable("counter")}

	for burst := 0; burst < 6; burst++ {
		for i := 0; i < 8; i++ {
			f.mustInvoke("w", dynamo.S("k"))
		}
		age()
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
		age()
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
		// A third pass deletes rows that became deletable after the second
		// pass's disconnects aged.
		age()
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	rows, order, err := d.chain("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(order) > 4 {
		t.Errorf("chain length %d after GC; rows=%d", len(order), len(rows))
	}
	if len(rows) > 6 {
		t.Errorf("%d physical rows survive (dangling not collected)", len(rows))
	}
	// The counter survived all collection.
	if got := f.readData("w", "counter", "k"); got.Int() != 48 {
		t.Errorf("counter = %v, want 48", got)
	}
}

func TestGCWithoutGCChainGrowsUnbounded(t *testing.T) {
	// Negative control for Figure 16: no GC → linear growth.
	f := gcFixture(t)
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	for i := 0; i < 20; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	d := daal{rt: rt, table: rt.dataTable("counter")}
	_, order, _ := d.chain("k")
	if len(order) < 10 {
		t.Errorf("chain = %d rows; expected unbounded growth at cap 2", len(order))
	}
}

func TestGCNeverCollectsHeadOrTail(t *testing.T) {
	f := gcFixture(t)
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	for i := 0; i < 10; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	for pass := 0; pass < 4; pass++ {
		age()
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	d := daal{rt: rt, table: rt.dataTable("counter")}
	rows, order, _ := d.chain("k")
	if len(order) < 1 || order[0] != headRowID {
		t.Fatalf("head missing: %v", order)
	}
	tail := rows[order[len(order)-1]]
	if tail.value.Int() != 10 {
		t.Errorf("tail value = %v", tail.value)
	}
}

func TestGCLeavesPendingIntentsAlone(t *testing.T) {
	f := gcFixture(t)
	var fail sync.Map
	fail.Store("x", true)
	f.fn("flaky", func(e *Env, in Value) (Value, error) {
		if _, bad := fail.Load("x"); bad {
			return dynamo.Null, fmt.Errorf("boom")
		}
		return counterBody(e, in)
	}, "counter")
	f.invoke("flaky", dynamo.S("k")) //nolint:errcheck
	rt := f.rts["flaky"]
	age()
	rt.RunGarbageCollector()
	age()
	st, _ := rt.RunGarbageCollector()
	if st.IntentsDeleted != 0 {
		t.Errorf("GC deleted %d pending intents", st.IntentsDeleted)
	}
	fail.Delete("x")
	f.recoverAll()
	if got := f.readData("flaky", "counter", "k"); got.Int() != 1 {
		t.Errorf("recovery after GC: %v", got)
	}
}

func TestGCConcurrentWithWriters(t *testing.T) {
	// GC races live writers on the same key: no write lost, chain well
	// formed, value equals the last writer's count.
	f := newFixture(t, withConfig(Config{RowCap: 2, T: 2 * time.Millisecond, ICMinAge: time.Millisecond}))
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	stop := make(chan struct{})
	var gcErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rt.RunGarbageCollector(); err != nil {
				gcErr = err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	const writes = 60
	for i := 0; i < writes; i++ {
		f.mustInvoke("w", dynamo.S("k"))
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if gcErr != nil {
		t.Fatalf("gc error: %v", gcErr)
	}
	if got := f.readData("w", "counter", "k"); got.Int() != writes {
		t.Errorf("counter = %v, want %d (GC raced a write away)", got, writes)
	}
}

func TestGCConcurrentGCInstances(t *testing.T) {
	// Multiple GC instances run concurrently (§5): safety must hold and
	// the structure must converge.
	f := gcFixture(t)
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	for i := 0; i < 16; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	age()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				if _, err := rt.RunGarbageCollector(); err != nil {
					t.Errorf("gc: %v", err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := f.readData("w", "counter", "k"); got.Int() != 16 {
		t.Errorf("counter = %v, want 16", got)
	}
	// Later writes still work.
	f.mustInvoke("w", dynamo.S("k"))
	if got := f.readData("w", "counter", "k"); got.Int() != 17 {
		t.Errorf("post-GC write: %v", got)
	}
}

func TestGCCollectsShadowAndRegistries(t *testing.T) {
	f := gcFixture(t)
	f.fn("bank", transferBody, "acct")
	seedAccounts(t, f, "bank", map[string]int64{"a": 100, "b": 0})
	f.mustInvoke("bank", dynamo.M(map[string]Value{
		"from": dynamo.S("a"), "to": dynamo.S("b"), "amount": dynamo.NInt(10),
	}))
	rt := f.rts["bank"]
	shadowRows := func() int {
		n, _ := f.store.TableItemCount(rt.shadowTable("acct"))
		return n
	}
	regRows := func() int {
		a, _ := f.store.TableItemCount(rt.txCallees)
		b, _ := f.store.TableItemCount(rt.txLocks)
		return a + b
	}
	if shadowRows() == 0 || regRows() == 0 {
		t.Fatalf("expected shadow (%d) and registry (%d) rows before GC", shadowRows(), regRows())
	}
	for pass := 0; pass < 3; pass++ {
		age()
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	if shadowRows() != 0 {
		t.Errorf("%d shadow rows survive", shadowRows())
	}
	if regRows() != 0 {
		t.Errorf("%d registry rows survive", regRows())
	}
	// State intact.
	if got := f.readData("bank", "acct", "a"); got.Int() != 90 {
		t.Errorf("a = %v", got)
	}
}

// txnPairFixture is an owner SSF whose transaction writes through a callee,
// so the callee's settle claimant (the commit-phase instance) is a different
// intent from the one whose entries sit in its shadow chain.
func txnPairFixture(t *testing.T, T time.Duration) (*fixture, *Runtime) {
	t.Helper()
	f := newFixture(t, withConfig(Config{RowCap: 2, T: T, ICMinAge: time.Millisecond}))
	f.fn("leaf", func(e *Env, in Value) (Value, error) {
		return dynamo.Null, e.Write("acct", "x", in)
	}, "acct")
	f.fn("owner", func(e *Env, in Value) (Value, error) {
		return dynamo.Null, e.Transaction(func() error {
			_, err := e.SyncInvoke("leaf", in)
			return err
		})
	})
	f.mustInvoke("owner", dynamo.NInt(7))
	return f, f.rts["leaf"]
}

// txnLeftovers counts the callee's shadow and registry rows.
func txnLeftovers(f *fixture, rt *Runtime) int {
	total := 0
	for _, tbl := range []string{rt.shadowTable("acct"), rt.txCallees, rt.txLocks} {
		n, _ := f.store.TableItemCount(tbl)
		total += n
	}
	return total
}

func TestGCSettlesOnThePassClock(t *testing.T) {
	// With T below a pass's own duration, a second clock reading inside the
	// pass used to judge the claimant it had just stamped "settled": the
	// registries went, the entries were not yet recyclable, and the shadow
	// chain was left with no settle marker to be collected by — for good.
	f, rt := txnPairFixture(t, time.Microsecond)
	for pass := 0; pass < 2; pass++ {
		time.Sleep(time.Millisecond)
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	if n := txnLeftovers(f, rt); n != 0 {
		t.Errorf("%d shadow/registry rows survive stamp + recycle passes", n)
	}
}

func TestGCKeepsRegistriesWhileShadowChainSurvives(t *testing.T) {
	// The claimant turns recyclable a pass before the instance whose write
	// sits in the shadow chain (paged stamping can order them so; here the
	// claimant's stamp is back-dated). The pass that settles the transaction
	// cannot delete the chain yet, so it must leave the settle marker too.
	f, rt := txnPairFixture(t, 5*time.Millisecond)
	markers, err := f.store.Scan(rt.txCallees, dynamo.QueryOpts{
		Filter: dynamo.Eq(dynamo.A(attrCallee), dynamo.S(settleMarker))})
	if err != nil || len(markers) != 1 {
		t.Fatalf("settle markers: %v %v", markers, err)
	}
	claimant := markers[0][attrInstanceID].Str()
	if err := f.store.Update(rt.intentTable, dynamo.HK(dynamo.S(claimant)), nil,
		dynamo.Set(dynamo.A(attrFinishTime), dynamo.NInt(rt.now()-time.Second.Microseconds()))); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunGarbageCollector(); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.store.TableItemCount(rt.shadowTable("acct")); n == 0 {
		t.Fatal("setup: the shadow chain was collectable in the first pass")
	}
	if n, _ := f.store.TableItemCount(rt.txCallees); n == 0 {
		t.Error("settle marker deleted while its shadow chain survives")
	}
	for pass := 0; pass < 2; pass++ {
		age()
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	if n := txnLeftovers(f, rt); n != 0 {
		t.Errorf("%d shadow/registry rows survive", n)
	}
	if got := f.readData("leaf", "acct", "x"); got.Int() != 7 {
		t.Errorf("x = %v", got)
	}
}

func TestGCDoesNotCollectInFlightTransactionShadow(t *testing.T) {
	// A transaction paused mid-execute must keep its shadow rows through
	// any number of GC passes (the settle claimant is not yet recyclable).
	f := gcFixture(t)
	enter := make(chan struct{})
	release := make(chan struct{})
	f.fn("slow", func(e *Env, in Value) (Value, error) {
		err := e.Transaction(func() error {
			if err := e.Write("acct", "x", dynamo.NInt(1)); err != nil {
				return err
			}
			close(enter)
			<-release
			return nil
		})
		return dynamo.S("done"), err
	}, "acct")
	done := make(chan Value, 1)
	go func() {
		out, _ := f.invoke("slow", dynamo.Null)
		done <- out
	}()
	<-enter
	rt := f.rts["slow"]
	for pass := 0; pass < 3; pass++ {
		age()
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := f.store.TableItemCount(rt.shadowTable("acct")); n == 0 {
		t.Error("GC collected an in-flight transaction's shadow rows")
	}
	close(release)
	if out := <-done; out.Str() != "done" {
		t.Fatalf("txn failed after GC passes: %v", out)
	}
	if got := f.readData("slow", "acct", "x"); got.Int() != 1 {
		t.Errorf("x = %v", got)
	}
}

func TestGCStorageShrinks(t *testing.T) {
	// The point of §5: storage stays bounded. Bytes after GC must be well
	// below bytes before.
	f := gcFixture(t)
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	for i := 0; i < 30; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	before, _ := f.store.TableBytes(rt.dataTable("counter"))
	for pass := 0; pass < 4; pass++ {
		age()
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := f.store.TableBytes(rt.dataTable("counter"))
	if after >= before/2 {
		t.Errorf("storage %d → %d; expected at least halving", before, after)
	}
}

// failNthDelete fails the n-th Delete of one table; table is set once the
// runtime has named it.
type failNthDelete struct {
	storage.Backend
	table string
	n     int64
	seen  atomic.Int64
}

func (s *failNthDelete) Delete(table string, key dynamo.Key, cond dynamo.Cond) error {
	if table == s.table && s.seen.Add(1) == s.n {
		return errors.New("injected delete failure")
	}
	return s.Backend.Delete(table, key, cond)
}

func TestGCDeletesACollectedShadowChainHeadLast(t *testing.T) {
	// A pass that dies after the first delete of a two-row shadow chain must
	// leave the head, never a headless row a head-first write would take for
	// an absent item; the next pass finishes the chain.
	store := &failNthDelete{Backend: storagetest.Open(t), n: 2}
	f := newFixture(t, withStore(store), withConfig(Config{RowCap: 2, T: 5 * time.Millisecond, ICMinAge: time.Millisecond}))
	rt := f.fn("w", func(e *Env, in Value) (Value, error) {
		return dynamo.Null, e.Transaction(func() error {
			for i := int64(1); i <= 3; i++ { // three shadow entries: two rows
				if err := e.Write("acct", "x", dynamo.NInt(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}, "acct")
	f.mustInvoke("w", dynamo.Null)
	shadow := rt.shadowTable("acct")
	if n, _ := store.TableItemCount(shadow); n != 2 {
		t.Fatalf("setup: %d shadow rows, want a two-row chain", n)
	}
	store.table = shadow
	var err error
	for pass := 0; pass < 3 && err == nil; pass++ {
		age()
		_, err = rt.RunGarbageCollector()
	}
	if err == nil {
		t.Fatal("no pass hit the injected delete failure: the chain was never collected")
	}
	rows, qerr := store.Scan(shadow, dynamo.QueryOpts{})
	if qerr != nil || len(rows) != 1 || rows[0][attrRowID].Str() != headRowID {
		t.Fatalf("after the failed pass the shadow table holds %v (%v), want the head alone", rows, qerr)
	}
	if _, err := rt.RunGarbageCollector(); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.TableItemCount(shadow); n != 0 {
		t.Errorf("%d shadow rows survive the next pass", n)
	}
	if got := f.readData("w", "acct", "x"); got.Int() != 3 {
		t.Errorf("x = %v, want 3", got)
	}
	if err := Fsck(rt); err != nil {
		t.Error(err)
	}
}
