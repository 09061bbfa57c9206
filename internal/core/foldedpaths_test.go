package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// Crash, replay and race coverage of the paths that lost a round trip: the
// one-query state read, Await's replay probe (skipped only on a fresh
// intent) and asyncInvoke's confirmation by reply. The op counts themselves
// are pinned in opbudget_test.go.

func TestOneQueryReadUnderGrowingChain(t *testing.T) {
	// A single writer stores 1, 2, 3, … into one key whose rows fill after
	// two entries, while the GC disconnects and deletes recycled rows and
	// readers resolve the state from the query's snapshot alone. A reader
	// must see a value no older than the last write acknowledged before it
	// started — so never Null and never a disconnected row's stale copy —
	// and no newer than the last write begun before it finished.
	f := newFixture(t, withConfig(Config{RowCap: 2, T: time.Millisecond, ICMinAge: time.Millisecond}))
	rt := f.fn("w", func(e *Env, in Value) (Value, error) {
		return dynamo.Null, e.Write("kv", "k", in)
	}, "kv")
	f.mustInvoke("w", dynamo.NInt(1))

	var begun, acked atomic.Int64
	begun.Store(1)
	acked.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the collector
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rt.RunGarbageCollector(); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	var reads atomic.Int64
	d := daal{rt: rt, table: rt.dataTable("kv")}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := acked.Load()
				row, ok, err := d.currentRow("k")
				hi := begun.Load()
				if err != nil || !ok {
					t.Errorf("currentRow: ok=%v err=%v", ok, err)
					return
				}
				if got := row.value.Int(); row.value.IsNull() || got < lo || got > hi {
					t.Errorf("read %v from %s; writes acknowledged before the read: %d, begun by its end: %d",
						row.value, row.rowID, lo, hi)
					return
				}
				reads.Add(1)
			}
		}()
	}
	const writes = 150
	for i := int64(2); i <= writes; i++ {
		begun.Store(i)
		f.mustInvoke("w", dynamo.NInt(i))
		acked.Store(i)
		if i%10 == 0 {
			time.Sleep(time.Millisecond) // let intents age past T so rows get disconnected
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no concurrent read completed")
	}
	if st := rt.StatsSnapshot(); st.GCDisconnected == 0 || st.GCRowsDeleted == 0 {
		t.Errorf("the chain was never collected under the readers (disconnected %d, deleted %d): the race is vacuous",
			st.GCDisconnected, st.GCRowsDeleted)
	}
	if _, order, _ := d.chain("k"); len(order) > writes/2 {
		t.Errorf("chain still %d rows long", len(order))
	}
}

func TestAwaitOnReplayedIntentReadsTheLog(t *testing.T) {
	// The driver dies right after its Await's row was flushed at the end of
	// the body. Its re-execution is not a first execution, so it must load
	// the read log and return the logged value without looking for the posted
	// result — it is removed from the invoke-log row here, so a re-execution
	// that assumed an empty log would wait for a post that never comes and
	// time out.
	f := newFixture(t,
		withConfig(Config{RowCap: 4, T: 50 * time.Millisecond, ICMinAge: time.Millisecond,
			AwaitRetryMax: 3, LockRetryBase: time.Millisecond}),
		withFaults(&platform.CrashOnce{Function: "driver", Label: "body:done"}))
	var seq atomic.Int64
	f.fn("work", fanWorkerBody(&seq), "count")
	var mu sync.Mutex
	var driverID, promiseStep string
	var observed []Value
	driver := f.fn("driver", func(e *Env, _ Value) (Value, error) {
		p, err := e.AsyncInvokePromise("work", dynamo.NInt(0))
		if err != nil {
			return dynamo.Null, err
		}
		mu.Lock()
		driverID, promiseStep = e.InstanceID(), p.step
		mu.Unlock()
		v, err := p.Await(e)
		mu.Lock()
		if err == nil {
			observed = append(observed, v)
		}
		mu.Unlock()
		return v, err
	})
	if _, err := f.invoke("driver", dynamo.Null); err == nil {
		t.Fatal("driver survived its crash point")
	}
	f.plat.Drain()
	logged, err := f.store.Query(driver.readLog, dynamo.S(driverID), dynamo.QueryOpts{})
	if err != nil || len(logged) != 1 {
		t.Fatalf("read log after the crash: %v %v", logged, err)
	}
	err = f.store.Update(driver.invokeLog, dynamo.HSK(dynamo.S(driverID), dynamo.S(promiseStep)),
		dynamo.Exists(dynamo.A(attrPosted)), dynamo.Remove(dynamo.A(attrPosted)))
	if err != nil {
		t.Fatal(err)
	}
	replaysBefore := driver.StatsSnapshot().Replays
	f.recoverAll()
	_, done, ret, err := driver.intentDone(driverID)
	if err != nil || !done {
		t.Fatalf("driver not recovered: done=%v err=%v", done, err)
	}
	if !ret.Equal(logged[0][attrValue]) {
		t.Errorf("re-execution returned %v, the logged await value is %v", ret, logged[0][attrValue])
	}
	if len(observed) != 2 || !observed[0].Equal(ret) || !observed[1].Equal(ret) {
		t.Errorf("awaits that resolved: %v, want the first execution's and the re-execution's %v", observed, ret)
	}
	if got := driver.StatsSnapshot().Replays - replaysBefore; got < 1 {
		t.Errorf("Replays grew by %d, want the replayed await counted", got)
	}
	if n := seq.Load(); n != 1 {
		t.Errorf("worker body ran %d times", n)
	}
}

// atCrashPoint is a FaultPlan that never crashes anything: it runs do when
// fn reaches label — a hook between two protocol steps of another instance.
type atCrashPoint struct {
	fn, label string
	do        func()
}

func (h atCrashPoint) ShouldCrash(fn, label string, _ int) bool {
	if fn == h.fn && label == h.label {
		h.do()
	}
	return false
}

func TestAsyncInvokeFailsWhenRegistrationCallbackIsSpurious(t *testing.T) {
	// asyncInvoke trusts the registration reply instead of re-reading its
	// invoke-log row, so the reply must tell the truth: when the row is gone
	// by the time the confirming callback arrives, the callback is spurious,
	// the reply says so, and the step fails as "registration not confirmed"
	// without firing the run.
	var f *fixture
	var driverID atomic.Value
	f = newFixture(t, withFaults(atCrashPoint{fn: "work", label: "async:registered", do: func() {
		rt := f.rts["driver"]
		if n, err := rt.deletePartition(rt.invokeLog, driverID.Load().(string)); err != nil || n != 1 {
			t.Errorf("deleting the invoke-log row: %d rows, %v", n, err)
		}
	}}))
	var ran atomic.Int64
	f.fn("work", func(e *Env, _ Value) (Value, error) {
		ran.Add(1)
		return dynamo.Null, nil
	})
	driver := f.fn("driver", func(e *Env, _ Value) (Value, error) {
		driverID.Store(e.InstanceID())
		return dynamo.Null, e.AsyncInvoke("work", dynamo.Null)
	})
	_, err := f.invoke("driver", dynamo.Null)
	if err == nil || !strings.Contains(err.Error(), "registration not confirmed") {
		t.Fatalf("asyncInvoke with a spurious registration callback: %v", err)
	}
	f.plat.Drain()
	if got := driver.StatsSnapshot().SpuriousCallback; got != 1 {
		t.Errorf("SpuriousCallback = %d, want 1", got)
	}
	if ran.Load() != 0 {
		t.Error("the run was fired for an unconfirmed registration")
	}
}
