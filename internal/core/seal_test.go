package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
)

// These tests pin what a differential oracle cannot see: the crash-free run
// of a program that reads a sealed table wrongly, or accepts a write to it,
// is just as wrong as its crashed run, so the crash-point enumeration
// compares two equal answers. Each test here fails on a mutation of seal.go
// or of the read path: checking the cache before the read log, accepting a
// write, caching an absent key.

// TestSealedReadReplaysAValueLoggedBeforeTheSeal: an instance logs x = v1
// and dies; x then changes to v2, the table is sealed and a later read puts
// v2 in the cache. The re-execution reads the log first, so it sees v1 — the
// value its logged effect was computed from. Seal refuses while the instance
// is pending, so the seal here is one that raced it: the runtime marks the
// table sealed without the check, as a seal made while the instance was
// still running would have.
func TestSealedReadReplaysAValueLoggedBeforeTheSeal(t *testing.T) {
	f := newFixture(t)
	var crashed atomic.Value // the instance id of the execution that died
	rt := f.fn("reader", func(e *Env, in Value) (Value, error) {
		switch in.Str() {
		case "seed", "set":
			return dynamo.Null, e.Write("ref", "x", dynamo.S(map[string]string{"seed": "v1", "set": "v2"}[in.Str()]))
		}
		v, err := e.Read("ref", "x")
		if err != nil {
			return dynamo.Null, err
		}
		// An effect computed from the read: the flush before it logs x.
		if err := e.Write("out", e.InstanceID(), v); err != nil {
			return dynamo.Null, err
		}
		if in.Str() == "die" && crashed.Load() == nil {
			crashed.Store(e.InstanceID())
		}
		return v, nil
	}, "ref", "out")
	f.mustInvoke("reader", dynamo.S("seed"))
	crash := &platform.CrashOnce{Function: "reader", Label: "body:done"}
	f.plat.SetFaults(crash)
	if _, err := f.invoke("reader", dynamo.S("die")); err == nil || !crash.Fired() {
		t.Fatalf("the reader must die at body:done: %v", err)
	}
	f.plat.SetFaults(nil)
	f.mustInvoke("reader", dynamo.S("set"))
	if err := rt.Seal("ref"); !errors.Is(err, ErrSealPending) {
		t.Fatalf("Seal with the reader's intent pending: %v, want ErrSealPending", err)
	}
	rt.markSealed("ref")
	if got := f.mustInvoke("reader", dynamo.S("read")).Str(); got != "v2" {
		t.Fatalf("a read after the seal = %q, want v2", got)
	}
	f.recoverAll()
	id := crashed.Load().(string)
	exists, done, ret, err := rt.intentDone(id)
	if err != nil || !exists || !done {
		t.Fatalf("recovered intent %s: exists %v done %v err %v", id, exists, done, err)
	}
	if ret.Str() != "v1" {
		t.Errorf("the re-execution read %q; it logged v1 before the table changed and was sealed", ret.Str())
	}
	if got := f.readData("reader", "out", id).Str(); got != "v1" {
		t.Errorf("out/%s = %q, want v1", id, got)
	}
}

// TestSealedTableRefusesEveryWrite: Write, CondWrite, Lock, and a
// transaction's Write and CondWrite of a sealed table fail with
// ErrTableSealed, take no step key and make no store op.
func TestSealedTableRefusesEveryWrite(t *testing.T) {
	store := dynamo.NewStore()
	f := newFixture(t, withStore(store))
	ops := func() int64 { return store.Metrics().Snapshot().TotalOps() }
	v2 := dynamo.S("v2")
	kinds := []struct {
		name  string
		write func(e *Env) error
	}{
		{"Write", func(e *Env) error { return e.Write("ref", "x", v2) }},
		{"CondWrite", func(e *Env) error {
			_, err := e.CondWrite("ref", "x", v2, dynamo.Eq(dynamo.A(attrValue), dynamo.S("v1")))
			return err
		}},
		{"CondWrite (new key)", func(e *Env) error {
			_, err := e.CondWrite("ref", "new", v2, dynamo.NotExists(dynamo.A(attrValue)))
			return err
		}},
		{"Lock", func(e *Env) error { return e.Lock("ref", "x") }},
	}
	var problems []string
	check := func(e *Env, name string, write func(*Env) error) {
		o, s := ops(), e.steps.Load()
		err := write(e)
		if !errors.Is(err, ErrTableSealed) {
			problems = append(problems, fmt.Sprintf("%s: err %v, want ErrTableSealed", name, err))
		}
		if n := ops() - o; n != 0 {
			problems = append(problems, fmt.Sprintf("%s: %d store ops, want 0", name, n))
		}
		if e.steps.Load() != s {
			problems = append(problems, fmt.Sprintf("%s took a step key", name))
		}
	}
	rt := f.fn("w", func(e *Env, in Value) (Value, error) {
		if in.Str() == "seed" {
			return dynamo.Null, e.Write("ref", "x", dynamo.S("v1"))
		}
		for _, k := range kinds {
			check(e, k.name, k.write)
		}
		err := e.Transaction(func() error {
			check(e, "transaction Write", kinds[0].write)
			check(e, "transaction CondWrite", kinds[1].write)
			return nil
		})
		return dynamo.Null, err
	}, "ref")
	f.mustInvoke("w", dynamo.S("seed"))
	if err := rt.Seal("ref"); err != nil {
		t.Fatal(err)
	}
	rows, err := store.Scan(rt.dataTable("ref"), dynamo.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f.mustInvoke("w", dynamo.S("write"))
	for _, p := range problems {
		t.Error(p)
	}
	after, err := store.Scan(rt.dataTable("ref"), dynamo.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(rows) || !after[0][attrValue].Equal(rows[0][attrValue]) || !after[0][attrRecent].Equal(rows[0][attrRecent]) {
		t.Errorf("the sealed table changed: %v, was %v", after, rows)
	}
}

// TestSealedReadCachesOnlyFoundKeys: a found key costs one query once; an
// absent key costs one each time and never enters the cache.
func TestSealedReadCachesOnlyFoundKeys(t *testing.T) {
	store := dynamo.NewStore()
	f := newFixture(t, withStore(store))
	queries := func() int64 { return store.Metrics().Snapshot().Ops["query"] }
	var got []int64
	rt := f.fn("r", func(e *Env, in Value) (Value, error) {
		if in.Str() == "seed" {
			return dynamo.Null, e.Write("ref", "x", dynamo.S("v1"))
		}
		for _, key := range []string{"x", "x", "absent", "absent"} {
			q := queries()
			if _, err := e.Read("ref", key); err != nil {
				return dynamo.Null, err
			}
			got = append(got, queries()-q)
		}
		return dynamo.Null, nil
	}, "ref")
	f.mustInvoke("r", dynamo.S("seed"))
	if err := rt.Seal("ref"); err != nil {
		t.Fatal(err)
	}
	f.mustInvoke("r", dynamo.S("read"))
	if want := []int64{1, 0, 1, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("queries per read of x, x, absent, absent = %v, want %v", got, want)
	}
	st := rt.sealedTable("ref")
	if len(st.vals) != 1 || !st.vals["x"].Equal(dynamo.S("v1")) {
		t.Errorf("cache = %v, want only x = v1", st.vals)
	}
}

// TestSealedReadFromParallelBranches: branches of one instance read the same
// sealed keys at once through one cache (run it under -race).
func TestSealedReadFromParallelBranches(t *testing.T) {
	const branches, keys = 8, 16
	f := newFixture(t)
	rt := f.fn("p", func(e *Env, in Value) (Value, error) {
		if in.Str() == "seed" {
			for k := 0; k < keys; k++ {
				if err := e.Write("ref", fmt.Sprint(k), dynamo.NInt(int64(k))); err != nil {
					return dynamo.Null, err
				}
			}
			return dynamo.Null, nil
		}
		sums := make([]int64, branches)
		fns := make([]func(*Env) error, branches)
		for b := range fns {
			fns[b] = func(e *Env) error {
				for k := 0; k < keys; k++ {
					v, err := e.Read("ref", fmt.Sprint((k+b)%keys))
					if err != nil {
						return err
					}
					sums[b] += v.Int()
				}
				return nil
			}
		}
		if err := e.Parallel(fns...); err != nil {
			return dynamo.Null, err
		}
		var total int64
		for _, s := range sums {
			total += s
		}
		return dynamo.NInt(total), nil
	}, "ref")
	f.mustInvoke("p", dynamo.S("seed"))
	if err := rt.Seal("ref"); err != nil {
		t.Fatal(err)
	}
	want := int64(branches * keys * (keys - 1) / 2)
	for run := 0; run < 4; run++ {
		if got := f.mustInvoke("p", dynamo.S("read")).Int(); got != want {
			t.Fatalf("run %d: sum %d, want %d", run, got, want)
		}
	}
	if n := len(rt.sealedTable("ref").vals); n != keys {
		t.Errorf("cache holds %d keys, want %d", n, keys)
	}
}

// schemaCounter counts TableSchema calls on the store it wraps.
type schemaCounter struct {
	storage.Backend
	n atomic.Int64
}

func (s *schemaCounter) TableSchema(name string) (dynamo.Schema, error) {
	s.n.Add(1)
	return s.Backend.TableSchema(name)
}

// TestSealSurvivesAReopen: a runtime registered over a store that already
// has a table checks the table's seal with one TableSchema call beside the
// one per physical table that checks its layout, and adopts the seal;
// creating the table on a fresh store asks nothing.
func TestSealSurvivesAReopen(t *testing.T) {
	store := &schemaCounter{Backend: dynamo.NewStore()}
	f := newFixture(t, withStore(store))
	rt := f.fn("s", func(e *Env, in Value) (Value, error) { return dynamo.Null, e.Write("ref", "x", in) }, "ref", "open")
	if n := store.n.Load(); n != 0 {
		t.Errorf("registering on a fresh store called TableSchema %d times, want 0", n)
	}
	f.mustInvoke("s", dynamo.S("v1"))
	if err := rt.Seal("ref"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Seal("missing"); err == nil {
		t.Error("sealing an unregistered table succeeded")
	}
	reopened, err := NewRuntime(RuntimeOptions{Function: "s", Store: store, Platform: f.plat, Config: f.cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"open", "ref"} {
		base := store.n.Load()
		if err := reopened.CreateDataTable(table); err != nil {
			t.Fatal(err)
		}
		if n := store.n.Load() - base; n != 3 {
			t.Errorf("adopting %s cost %d TableSchema calls, want 3: its DAAL, its shadow, its seal marker", table, n)
		}
	}
	if reopened.sealedTable("ref") == nil || reopened.sealedTable("open") != nil {
		t.Errorf("reopened runtime: ref sealed %v, open sealed %v; want true, false",
			reopened.sealedTable("ref") != nil, reopened.sealedTable("open") != nil)
	}
}
