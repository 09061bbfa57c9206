package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dynamo"
)

func TestStatsCountOperations(t *testing.T) {
	f := newFixture(t)
	f.fn("ops", func(e *Env, in Value) (Value, error) {
		if _, err := e.Read("kv", "a"); err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("kv", "a", dynamo.NInt(1)); err != nil {
			return dynamo.Null, err
		}
		if _, err := e.CondWrite("kv", "b", dynamo.NInt(2), dynamo.True()); err != nil {
			return dynamo.Null, err
		}
		if err := e.Lock("kv", "c"); err != nil {
			return dynamo.Null, err
		}
		if err := e.Unlock("kv", "c"); err != nil {
			return dynamo.Null, err
		}
		if _, err := e.SyncInvoke("leaf", dynamo.Null); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("ok"), e.AsyncInvoke("leaf", dynamo.Null)
	}, "kv")
	f.fn("leaf", func(e *Env, in Value) (Value, error) { return dynamo.Null, nil })
	f.mustInvoke("ops", dynamo.Null)
	f.plat.Drain()

	v := f.rts["ops"].StatsSnapshot()
	if v.Reads != 1 || v.Writes != 1 || v.CondWrites != 1 {
		t.Errorf("ops: reads=%d writes=%d condwrites=%d", v.Reads, v.Writes, v.CondWrites)
	}
	if v.Locks != 1 || v.Unlocks != 1 {
		t.Errorf("locks=%d unlocks=%d", v.Locks, v.Unlocks)
	}
	if v.SyncCalls != 1 || v.AsyncCalls != 1 {
		t.Errorf("sync=%d async=%d", v.SyncCalls, v.AsyncCalls)
	}
	if v.IntentsStarted != 1 || v.IntentsCompleted != 1 {
		t.Errorf("intents: started=%d completed=%d", v.IntentsStarted, v.IntentsCompleted)
	}
	// The async registration writes leaf's intent; the first-launched sync
	// call defers its row and, crossing no effect boundary, never writes it.
	leaf := f.rts["leaf"].StatsSnapshot()
	if leaf.IntentsStarted != 1 || leaf.IntentsDeferred != 1 || leaf.IntentsElided != 1 {
		t.Errorf("leaf intents: started=%d deferred=%d elided=%d, want 1 1 1",
			leaf.IntentsStarted, leaf.IntentsDeferred, leaf.IntentsElided)
	}
	if v.IntentsDeferred != 0 {
		t.Errorf("ops is a workflow entry, yet %d intents deferred", v.IntentsDeferred)
	}
}

func TestStatsCountReplaysAndRestarts(t *testing.T) {
	f := newFixture(t)
	fail := true
	f.fn("flaky", func(e *Env, in Value) (Value, error) {
		v, err := e.Read("kv", "k")
		if err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("kv", "k", dynamo.NInt(v.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		if fail {
			fail = false
			return dynamo.Null, errors.New("transient")
		}
		return dynamo.S("ok"), nil
	}, "kv")
	f.invoke("flaky", dynamo.Null) //nolint:errcheck
	f.recoverAll()
	v := f.rts["flaky"].StatsSnapshot()
	if v.Restarts != 1 {
		t.Errorf("restarts = %d", v.Restarts)
	}
	if v.Replays < 2 { // the read-log hit and the DAAL case A on replay
		t.Errorf("replays = %d, want >= 2", v.Replays)
	}
	if got := f.readData("flaky", "kv", "k"); got.Int() != 1 {
		t.Errorf("k = %v", got)
	}
}

func TestStatsCountTransactionsAndGC(t *testing.T) {
	f := newFixture(t, withConfig(Config{RowCap: 4, T: 2 * time.Millisecond, ICMinAge: time.Millisecond}))
	f.fn("tx", func(e *Env, in Value) (Value, error) {
		err := e.Transaction(func() error {
			if err := e.Write("kv", "a", dynamo.NInt(1)); err != nil {
				return err
			}
			if in.Str() == "abort" {
				return errors.New("nope")
			}
			return nil
		})
		if errors.Is(err, ErrTxnAborted) {
			return dynamo.S("aborted"), nil
		}
		return dynamo.S("done"), err
	}, "kv")
	f.mustInvoke("tx", dynamo.Null)
	f.mustInvoke("tx", dynamo.S("abort"))
	v := f.rts["tx"].StatsSnapshot()
	if v.TxnBegun != 2 || v.TxnCommitted != 1 || v.TxnAborted != 1 {
		t.Errorf("txns: begun=%d committed=%d aborted=%d", v.TxnBegun, v.TxnCommitted, v.TxnAborted)
	}
	time.Sleep(4 * time.Millisecond)
	f.rts["tx"].RunGarbageCollector()
	time.Sleep(4 * time.Millisecond)
	f.rts["tx"].RunGarbageCollector()
	v = f.rts["tx"].StatsSnapshot()
	if v.GCRuns != 2 || v.GCIntents == 0 {
		t.Errorf("gc: runs=%d intents=%d", v.GCRuns, v.GCIntents)
	}
}

func TestStatsSpuriousCallbackCounted(t *testing.T) {
	f := newFixture(t)
	f.fn("caller", func(e *Env, in Value) (Value, error) { return dynamo.Null, nil })
	cb := envelope{
		Kind: kindCallback, CallerInstance: "ghost", CallerStep: "0.000001",
		CalleeID: "nobody", Result: dynamo.S("x"), HasRes: true,
	}
	if _, err := f.plat.Invoke("caller", cb.encode()); err != nil {
		t.Fatal(err)
	}
	v := f.rts["caller"].StatsSnapshot()
	if v.CallbacksIn != 1 || v.SpuriousCallback != 1 {
		t.Errorf("callbacks=%d spurious=%d", v.CallbacksIn, v.SpuriousCallback)
	}
}
