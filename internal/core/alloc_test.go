package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/raceflag"
)

// The per-step allocation budget: what one logged step allocates in the
// compute plane and the in-memory store together, with no telemetry hub and
// no fault plan — the configuration a deployment runs in. A step allocates
// what it stores or returns (its step key, its log key, the rows and maps the
// store hands out or keeps, its update slice and the conditions that depend
// on the step) and nothing for a crash-point label or a span name nobody
// reads, a projection or a row index per read, or a condition on fixed
// attributes. The bytes column catches a change that trades allocations for
// bytes. In the idiom of
// internal/dynamo/alloc_test.go; EXPERIMENTS.md, "Allocations per step", has
// the before/after table.

// stepBudget is the table: allocations and allocated bytes per step. With a
// 48-byte Value and an 80-byte stored row the bytes read 712, 1 720, 1 040
// and 3 264. While the store kept a row's attributes, and a map value its
// entries, in Go maps
// the same steps cost 5, 18, 13 and 31 allocations and 712, 2 520, 1 888 and
// 4 400 bytes; with boxed update actions and per-call constant conditions
// 6, 24, 19 and 35 allocations and 760, 2 632, 1 920 and 4 464 bytes (and
// 14, 31, 25 and 44 allocations before that, while crash labels, span names
// and projections were built per step). The sync invoke cost 27 allocations
// and 3 040 bytes while every platform instance ran on a goroutine of its
// own, and 21 while an instance's root Env and its branch-shared state were
// two allocations; it cost 2 528 bytes while platform.Invocation carried a
// start time nothing read. A logged write cost 16 allocations and 1 528
// bytes, and a first write 928 bytes, while every write queried the item's
// skeleton first and the written value escaped to the heap.
var stepBudget = []struct {
	name          string
	allocs, bytes float64
	why           string
}{
	{"logged read", 5, 616, "step key; the state query's result slice and projected row (2); the read-log queue, on an instance's first read"},
	{"logged write", 8, 792, "step key, log key; the head-first update's actions and condition operands (one allocation) and its two condition boxes; the row's new attribute list and copied log"},
	{"first write", 11, 808, "step key, log key; the head-first upsert's actions and condition operands (one allocation) and its two condition boxes; the new head row, its attribute and log lists"},
	{"sealed read, warm", 1, 16, "step key: the sealed table's cache answers, with no query and no queued read-log row"},
	{"sync invoke", 20, 2464, "callee id, the invoke-log row's update, the envelope; the platform instance and the effect-free callee's whole execution, callback included — run on the invoking goroutine (no goroutine, result channel or closure per instance), its root Env and shared state one allocation"},
	{"pure call, warm", 7, 632, "step key, callee id, the envelope; the platform instance and its request id; the unlogged callee's root Env and its sealed read's step key, answered from a warm cache — no invoke-log row, no callback, no intent"},
}

// bytesSlack is how far a step's allocated bytes may drift from the table
// either way before the test asks for a look: size classes move a few bytes
// when a string's length does.
const bytesSlack = 0.02

// stepAllocs registers a function whose instances each run one measured
// step, runs it samples times and returns the median allocations and
// allocated bytes per step: the store's own maps grow now and then as keys
// arrive, which a median does not see. Once the function is registered,
// prep runs on its runtime when prep is non-nil. Before sample i, an
// unmeasured instance of the same function runs setup(e, i) when setup is
// non-nil (a function sees only its own tables).
func stepAllocs(t *testing.T, f *fixture, name string, samples int, prep func(rt *Runtime) error, setup, step func(e *Env, i int) error) stepMem {
	t.Helper()
	var counts, sizes []uint64
	rt := f.fn(name, func(e *Env, in Value) (Value, error) {
		i := int(in.Int())
		if i < 0 {
			return dynamo.Null, setup(e, -1-i)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := step(e, i)
		runtime.ReadMemStats(&m1)
		counts = append(counts, m1.Mallocs-m0.Mallocs)
		sizes = append(sizes, m1.TotalAlloc-m0.TotalAlloc)
		return dynamo.Null, err
	}, "kv")
	if prep != nil {
		if err := prep(rt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < samples; i++ {
		if setup != nil {
			f.mustInvoke(name, dynamo.NInt(int64(-1-i)))
		}
		f.mustInvoke(name, dynamo.NInt(int64(i)))
	}
	slices.Sort(counts)
	slices.Sort(sizes)
	return stepMem{float64(counts[len(counts)/2]), float64(sizes[len(sizes)/2])}
}

// stepMem is one step's median allocations and allocated bytes.
type stepMem struct{ allocs, bytes float64 }

func TestStepAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := newFixture(t, withStore(dynamo.NewStore()))
	const samples = 51
	keys := make([]string, samples)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	write := func(e *Env, i int) error { return e.Write("kv", keys[i], dynamo.NInt(int64(i))) }
	read := func(e *Env, i int) error { _, err := e.Read("kv", keys[i]); return err }
	// fillAndSeal writes every key of rt's kv table, then seals it: the load
	// phase, with no instance running.
	fillAndSeal := func(rt *Runtime) error {
		kv := daal{rt: rt, table: rt.dataTable("kv")}
		for i, key := range keys {
			if _, err := kv.loggedWrite(key, "seed#0.000001", setTo(dynamo.NInt(int64(i)))); err != nil {
				return err
			}
		}
		return rt.Seal("kv")
	}
	f.fn("leaf", func(e *Env, in Value) (Value, error) { return in, nil })
	pleaf := f.fn("pleaf", func(e *Env, in Value) (Value, error) { return e.Read("kv", keys[0]) }, "kv")
	if err := fillAndSeal(pleaf); err != nil {
		t.Fatal(err)
	}
	pureCall := func(e *Env, _ int) error { _, err := e.SyncInvoke("pleaf", dynamo.Null); return err }

	got := []stepMem{
		stepAllocs(t, f, "read", samples, nil, write, read),
		stepAllocs(t, f, "write", samples, nil, write, write),
		stepAllocs(t, f, "first", samples, nil, nil, write),
		stepAllocs(t, f, "sealed", samples, fillAndSeal, read, read), // the setup's read warms the cache
		stepAllocs(t, f, "call", samples, nil, nil, func(e *Env, i int) error { _, err := e.SyncInvoke("leaf", dynamo.Null); return err }),
		stepAllocs(t, f, "pcall", samples, nil, pureCall, pureCall), // the first setup's call is logged and teaches the hint
	}
	for i, row := range stepBudget {
		t.Logf("%s: %.0f allocations, %.0f bytes", row.name, got[i].allocs, got[i].bytes)
		if got[i].allocs != row.allocs {
			t.Errorf("%s: %.2f allocations, want %.0f (%s)", row.name, got[i].allocs, row.allocs, row.why)
		}
		if got[i].bytes > row.bytes*(1+bytesSlack) {
			t.Errorf("%s: %.0f bytes allocated, over its %.0f by more than %.0f%%", row.name, got[i].bytes, row.bytes, 100*bytesSlack)
		} else if got[i].bytes < row.bytes*(1-bytesSlack) {
			t.Errorf("%s: %.0f bytes allocated, well under its %.0f: lower the table", row.name, got[i].bytes, row.bytes)
		}
	}

	// Reading an intent row back — its envelope, with the transaction
	// context and the input inside — allocates the record and nothing else:
	// the envelope is read from its field list in place. A reader that went
	// through the copying Value.Map would pay a map per level.
	ev := envelope{Kind: kindCall, InstanceID: "caller-1", CallerFn: "fn", CallerInstance: "caller-0", CallerStep: "3",
		Input: dynamo.Fields(dynamo.F("hotel", dynamo.S("hotel-007")), dynamo.F("op", dynamo.S("reserve"))),
		Txn:   &TxnContext{ID: "txn-1", Mode: TxExecute, Start: 42}}
	intent := dynamo.Item{attrInstanceID: dynamo.S("caller-1"), attrDone: dynamo.Bool(false), attrPending: dynamo.S(pendingMarker),
		attrArgs: ev.encode(), attrAsync: dynamo.Bool(false), attrStartTime: dynamo.NInt(42), attrLastLaunch: dynamo.NInt(42)}
	var rec *intentRecord
	if got := testing.AllocsPerRun(1000, func() { rec = decodeIntent(intent) }); got != 2 {
		t.Errorf("decoding an intent row: %.0f allocations, want 2 (the record and its transaction context)", got)
	}
	if rec.args.CallerStep != "3" || rec.args.Txn.Start != 42 || rec.args.Input.Get("op").Str() != "reserve" {
		t.Errorf("decoded intent %+v, envelope %+v", rec, rec.args)
	}
}
