package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// The cross-table-transaction comparator (§7.3) must provide the same
// guarantees as the linked DAAL through a different storage layout. These
// tests re-run the load-bearing scenarios in ModeCrossTable.

func TestCrossTableReadWriteCondWrite(t *testing.T) {
	f := newFixture(t, withMode(ModeCrossTable))
	f.fn("w", func(e *Env, in Value) (Value, error) {
		v, err := e.Read("kv", "k")
		if err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("kv", "k", dynamo.NInt(v.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		ok, err := e.CondWrite("kv", "cap", dynamo.S("set"),
			dynamo.Or(dynamo.NotExists(dynamo.A(attrValue)), dynamo.Eq(dynamo.A(attrValue), dynamo.Null)))
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.Bool(ok), nil
	}, "kv")
	out1 := f.mustInvoke("w", dynamo.Null)
	out2 := f.mustInvoke("w", dynamo.Null)
	if !out1.BoolVal() || out2.BoolVal() {
		t.Errorf("condWrite outcomes: %v %v", out1, out2)
	}
	if got := f.readData("w", "kv", "k"); got.Int() != 2 {
		t.Errorf("k = %v", got)
	}
}

func TestCrossTableExactlyOnceCrashSweep(t *testing.T) {
	build := func(f *fixture) {
		f.fn("back", counterBody, "counter")
		f.fn("front", func(e *Env, in Value) (Value, error) {
			out, err := e.SyncInvoke("back", dynamo.S("k"))
			if err != nil {
				return dynamo.Null, err
			}
			return out, e.Write("state", "last", out)
		}, "state")
	}
	workload := func(f *fixture) error {
		_, err := f.invoke("front", dynamo.Null)
		if err != nil && !errors.Is(err, platform.ErrCrashed) && !errors.Is(err, platform.ErrTimeout) {
			return err
		}
		return nil
	}
	check := func(f *fixture, label string) {
		if got := f.readData("back", "counter", "k"); got.Int() != 1 {
			t.Errorf("%s: counter = %v, want 1", label, got)
		}
	}
	// Reuse the sweep helper with the cross-table mode injected.
	counter := &platform.OpCounter{}
	probe := newFixture(t, withMode(ModeCrossTable), withFaults(counter))
	build(probe)
	if err := workload(probe); err != nil {
		t.Fatal(err)
	}
	probe.plat.Drain()
	check(probe, "crash-free")
	for _, fn := range []string{"front", "back"} {
		for n := 1; n <= counter.Max(fn); n++ {
			plan := &platform.CrashNthOp{Function: fn, N: n}
			f := newFixture(t, withMode(ModeCrossTable), withFaults(plan))
			build(f)
			workload(f) //nolint:errcheck
			f.plat.Drain()
			f.recoverAll()
			check(f, label(fn, n))
		}
	}
}

func label(fn string, n int) string { return fn + "@op" + string(rune('0'+n%10)) }

func TestCrossTableTransactionCommitAbort(t *testing.T) {
	f := newFixture(t, withMode(ModeCrossTable))
	f.fn("bank", transferBody, "acct")
	rt := f.rts["bank"]
	// Seed directly through the layer.
	for k, v := range map[string]int64{"a": 100, "b": 50} {
		if _, err := rt.layer().loggedMutate("acct", k, "seed#"+k, setTo(dynamo.NInt(v))); err != nil {
			t.Fatal(err)
		}
	}
	out := f.mustInvoke("bank", dynamo.M(map[string]Value{
		"from": dynamo.S("a"), "to": dynamo.S("b"), "amount": dynamo.NInt(30),
	}))
	if out.Str() != "ok" {
		t.Fatalf("transfer: %v", out)
	}
	if a := f.readData("bank", "acct", "a"); a.Int() != 70 {
		t.Errorf("a = %v", a)
	}
	// Insufficient: no change.
	out = f.mustInvoke("bank", dynamo.M(map[string]Value{
		"from": dynamo.S("a"), "to": dynamo.S("b"), "amount": dynamo.NInt(1000),
	}))
	if out.Str() != "insufficient" {
		t.Fatalf("transfer: %v", out)
	}
	if a := f.readData("bank", "acct", "a"); a.Int() != 70 {
		t.Errorf("a = %v after insufficient", a)
	}
}

func TestCrossTableGCPrunesWriteLogs(t *testing.T) {
	f := newFixture(t, withMode(ModeCrossTable),
		withConfig(Config{RowCap: 2, T: 5 * time.Millisecond, ICMinAge: time.Millisecond}))
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	for i := 0; i < 10; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	if n, _ := f.store.TableItemCount(rt.writeLogTable("counter")); n != 10 {
		t.Fatalf("write log rows = %d", n)
	}
	for pass := 0; pass < 3; pass++ {
		time.Sleep(8 * time.Millisecond)
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := f.store.TableItemCount(rt.writeLogTable("counter")); n != 0 {
		t.Errorf("%d write log rows survive GC", n)
	}
	if got := f.readData("w", "counter", "k"); got.Int() != 10 {
		t.Errorf("counter = %v", got)
	}
}

func TestCrossTableUsesTransactWriteNotDAAL(t *testing.T) {
	// Structural check for the §7.3 comparison: cross-table mode issues
	// store transactions; Beldi mode never does.
	for _, mode := range []Mode{ModeCrossTable, ModeBeldi} {
		f := newFixture(t, withMode(mode))
		f.fn("w", counterBody, "counter")
		before := f.store.Metrics().Snapshot()
		f.mustInvoke("w", dynamo.S("k"))
		diff := f.store.Metrics().Snapshot().Sub(before)
		tx := diff.Ops["txwrite"]
		if mode == ModeCrossTable && tx == 0 {
			t.Error("cross-table mode issued no store transactions")
		}
		if mode == ModeBeldi && tx != 0 {
			t.Errorf("beldi mode issued %d store transactions", tx)
		}
	}
}
