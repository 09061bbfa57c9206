package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamo"
)

func newDAAL(t *testing.T, rowCap int) (*daal, *fixture) {
	t.Helper()
	f := newFixture(t, withConfig(Config{RowCap: rowCap, T: DefaultT}))
	rt := f.fn("d", func(e *Env, in Value) (Value, error) { return dynamo.Null, nil }, "items")
	return &daal{rt: rt, table: rt.dataTable("items")}, f
}

func TestDAALFirstWriteCreatesHead(t *testing.T) {
	d, _ := newDAAL(t, 4)
	ok, err := d.loggedWrite("k", "i1#0.1", mutation{setVal: valPtr(dynamo.S("v1"))})
	if err != nil || !ok {
		t.Fatalf("write: %v %v", ok, err)
	}
	row, found, err := d.currentRow("k")
	if err != nil || !found {
		t.Fatalf("currentRow: %v %v", found, err)
	}
	if row.rowID != headRowID {
		t.Errorf("tail = %s, want head", row.rowID)
	}
	if row.value.Str() != "v1" {
		t.Errorf("value = %v", row.value)
	}
	// currentRow projects state only; the write log comes from readRow.
	if full, _, _ := d.readRow("k", headRowID); full.logSize != 1 || full.recent.MapLen() != 1 {
		t.Errorf("log: size=%d entries=%d", full.logSize, full.recent.MapLen())
	}
}

func TestDAALReplaySameLogKeyIsNoop(t *testing.T) {
	d, _ := newDAAL(t, 4)
	logKey := "i1#0.1"
	if _, err := d.loggedWrite("k", logKey, mutation{setVal: valPtr(dynamo.S("v1"))}); err != nil {
		t.Fatal(err)
	}
	// A different step writes v2; then the first step replays with v1 —
	// it must NOT re-apply (at-most-once).
	if _, err := d.loggedWrite("k", "i1#0.2", mutation{setVal: valPtr(dynamo.S("v2"))}); err != nil {
		t.Fatal(err)
	}
	ok, err := d.loggedWrite("k", logKey, mutation{setVal: valPtr(dynamo.S("v1"))})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("replay should report the recorded outcome (true)")
	}
	row, _, _ := d.currentRow("k")
	if row.value.Str() != "v2" {
		t.Errorf("replay re-applied: value = %v, want v2", row.value)
	}
}

func TestDAALAppendsRowsWhenFull(t *testing.T) {
	d, _ := newDAAL(t, 2)
	for i := 1; i <= 7; i++ {
		logKey := fmt.Sprintf("i1#0.%d", i)
		if _, err := d.loggedWrite("k", logKey, mutation{setVal: valPtr(dynamo.NInt(int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	rows, order, err := d.chain("k")
	if err != nil {
		t.Fatal(err)
	}
	// 7 writes at cap 2: rows hold 2,2,2,1 entries → 4 rows.
	if len(order) != 4 {
		t.Fatalf("chain length = %d (%v)", len(order), order)
	}
	// Non-tail rows are full and immutable; tail has the latest value.
	for i, id := range order[:len(order)-1] {
		if rows[id].logSize != 2 {
			t.Errorf("row %d size = %d, want full", i, rows[id].logSize)
		}
		if rows[id].next == "" {
			t.Errorf("row %d has no next", i)
		}
	}
	tail := rows[order[len(order)-1]]
	if tail.value.Int() != 7 {
		t.Errorf("tail value = %v", tail.value)
	}
	// Every row carries the key; ids are the deterministic sequence.
	for i, id := range order {
		if want := fmt.Sprintf("r%08d", i); id != want {
			t.Errorf("row id %q, want %q", id, want)
		}
	}
}

func TestDAALCondWriteOutcomes(t *testing.T) {
	d, _ := newDAAL(t, 4)
	eq := func(v Value) dynamo.Cond { return dynamo.Eq(dynamo.A(attrValue), v) }
	if _, err := d.loggedWrite("k", "i#0.1", mutation{setVal: valPtr(dynamo.NInt(1))}); err != nil {
		t.Fatal(err)
	}
	// Condition true: applies.
	ok, err := d.loggedWrite("k", "i#0.2", mutation{cond: eq(dynamo.NInt(1)), setVal: valPtr(dynamo.NInt(2))})
	if err != nil || !ok {
		t.Fatalf("cond-true: %v %v", ok, err)
	}
	// Condition false: recorded, not applied (case B2).
	ok, err = d.loggedWrite("k", "i#0.3", mutation{cond: eq(dynamo.NInt(1)), setVal: valPtr(dynamo.NInt(99))})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("false condition reported applied")
	}
	row, _, _ := d.currentRow("k")
	if row.value.Int() != 2 {
		t.Errorf("value = %v, want 2", row.value)
	}
	// Replays return the recorded outcomes even though state has moved on.
	if ok, _ := d.loggedWrite("k", "i#0.3", mutation{cond: eq(dynamo.NInt(2)), setVal: valPtr(dynamo.NInt(99))}); ok {
		t.Error("B2 replay flipped to true")
	}
	if ok, _ := d.loggedWrite("k", "i#0.2", mutation{cond: eq(dynamo.NInt(777)), setVal: valPtr(dynamo.NInt(0))}); !ok {
		t.Error("B1 replay flipped to false")
	}
	// The false-condition entry still consumed log space.
	if full, _, _ := d.readRow("k", row.rowID); full.logSize != 3 {
		t.Errorf("logSize = %d, want 3", full.logSize)
	}
}

func TestDAALCondWriteFalseAcrossFullRows(t *testing.T) {
	// A false conditional landing on a full tail must append a row and
	// record the false outcome there (cases C/D then B2).
	d, _ := newDAAL(t, 2)
	for i := 1; i <= 2; i++ {
		if _, err := d.loggedWrite("k", fmt.Sprintf("i#0.%d", i), mutation{setVal: valPtr(dynamo.NInt(int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := d.loggedWrite("k", "i#0.3", mutation{
		cond:   dynamo.Eq(dynamo.A(attrValue), dynamo.NInt(42)),
		setVal: valPtr(dynamo.NInt(0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("condition should be false")
	}
	_, order, _ := d.chain("k")
	if len(order) != 2 {
		t.Fatalf("chain = %v", order)
	}
	row, _, _ := d.currentRow("k")
	if row.value.Int() != 2 {
		t.Errorf("value corrupted: %v", row.value)
	}
}

func TestDAALReadAcrossRows(t *testing.T) {
	d, _ := newDAAL(t, 2)
	for i := 1; i <= 5; i++ {
		if _, err := d.loggedWrite("k", fmt.Sprintf("i#0.%d", i), mutation{setVal: valPtr(dynamo.NInt(int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	row, ok, err := d.currentRow("k")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if row.value.Int() != 5 {
		t.Errorf("read %v, want 5", row.value)
	}
	if _, ok, _ := d.currentRow("never-written"); ok {
		t.Error("found never-written key")
	}
}

func TestDAALLockColumnCarriedOnAppend(t *testing.T) {
	d, _ := newDAAL(t, 2)
	owner := lockOwnerValue("holder", 7)
	if _, err := d.loggedWrite("k", "h#0.1", mutation{cond: lockCond("holder"), setLock: &owner}); err != nil {
		t.Fatal(err)
	}
	// Fill the row and force appends; the lock must survive on the tail.
	for i := 2; i <= 6; i++ {
		if _, err := d.loggedWrite("k", fmt.Sprintf("w#0.%d", i), mutation{setVal: valPtr(dynamo.NInt(int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	row, _, _ := d.currentRow("k")
	id, _ := row.lock.MapGet(attrID)
	if id.Str() != "holder" {
		t.Errorf("lock owner lost across append: %v", row.lock)
	}
	// Another owner's conditional acquisition must fail on the tail.
	other := lockOwnerValue("other", 9)
	ok, err := d.loggedWrite("k", "o#0.1", mutation{cond: lockCond("other"), setLock: &other})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("lock stolen")
	}
}

func TestDAALConcurrentDistinctWritersAllLogged(t *testing.T) {
	// 20 writers, distinct log keys, same item: every write must be logged
	// exactly once somewhere in the chain, the chain must be well formed,
	// and the tail value must be one of the written values.
	d, _ := newDAAL(t, 3)
	const writers = 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			logKey := fmt.Sprintf("i%d#0.1", w)
			if _, err := d.loggedWrite("k", logKey, mutation{setVal: valPtr(dynamo.NInt(int64(w)))}); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	rows, order, err := d.chain("k")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, id := range order {
		r := rows[id]
		if r.recent.MapLen() > 3 {
			t.Errorf("row %s over capacity: %d", id, r.recent.MapLen())
		}
		if r.logSize != r.recent.MapLen() {
			t.Errorf("row %s logSize=%d entries=%d", id, r.logSize, r.recent.MapLen())
		}
		for k := range r.recent.Entries() {
			seen[k]++
		}
	}
	if len(seen) != writers {
		t.Errorf("logged %d distinct ops, want %d", len(seen), writers)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("logKey %s appears %d times", k, n)
		}
	}
	// All rows accounted for in the chain (deterministic ids → no orphans).
	if len(rows) != len(order) {
		t.Errorf("%d rows stored, %d reachable", len(rows), len(order))
	}
}

func TestDAALConcurrentSameLogKeyAppliesOnce(t *testing.T) {
	// The same (instance, step) raced by 10 executors must apply exactly
	// once — the at-most-once core of §3.1, under duplicate IC restarts.
	d, _ := newDAAL(t, 4)
	if _, err := d.loggedWrite("k", "seed#0.1", mutation{setVal: valPtr(dynamo.NInt(0))}); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 5; round++ {
		logKey := fmt.Sprintf("dup#0.%d", round)
		var wg sync.WaitGroup
		for g := 0; g < 10; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// increment-like mutation: all executors compute the same
				// target value (deterministic replay), so at-most-once is
				// what keeps the counter correct.
				v := dynamo.NInt(int64(round))
				if _, err := d.loggedWrite("k", logKey, mutation{setVal: &v}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		row, _, _ := d.currentRow("k")
		if row.value.Int() != int64(round) {
			t.Fatalf("round %d: value %v", round, row.value)
		}
	}
	// Exactly 6 log entries total (seed + 5 rounds).
	rows, order, _ := d.chain("k")
	total := 0
	for _, id := range order {
		total += rows[id].recent.MapLen()
	}
	if total != 6 {
		t.Errorf("total log entries = %d, want 6", total)
	}
}

func TestDAALSkeletonProjectionFindsLogAnywhere(t *testing.T) {
	d, _ := newDAAL(t, 2)
	for i := 1; i <= 5; i++ {
		if _, err := d.loggedWrite("k", fmt.Sprintf("i#0.%d", i), mutation{setVal: valPtr(dynamo.NInt(int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	// Entry i#0.2 lives in the first row (cap 2); the skeleton scan keyed
	// on it must find it without reading full rows.
	sk, err := d.scanSkeleton("k", logProjection("i#0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, found := sk.findLog("i#0.2"); !found {
		t.Error("skeleton missed a log entry in a non-tail row")
	}
	sk, _ = d.scanSkeleton("k", logProjection("i#0.99"))
	if _, found := sk.findLog("i#0.99"); found {
		t.Error("skeleton found a never-written entry")
	}
	tail, ok := sk.tail()
	if !ok || tail[attrRowID].Str() != "r00000002" {
		t.Errorf("tail = %v %v", tail, ok)
	}
}

// TestSkeletonTailWalksByID: the skeleton is the query's row slice, walked
// by id from the head whatever order the rows come in; rows the head does not
// reach are ignored, and a pointer into a row missing from the snapshot ends
// the walk at the row holding it.
func TestSkeletonTailWalksByID(t *testing.T) {
	row := func(id, next string) dynamo.Item {
		it := dynamo.Item{attrRowID: dynamo.S(id)}
		if next != "" {
			it[attrNextRow] = dynamo.S(next)
		}
		return it
	}
	for _, c := range []struct {
		name string
		sk   skeleton
		tail string // "" for no head
	}{
		{"empty", nil, ""},
		{"no head", skeleton{row("r00000001", "")}, ""},
		{"head only", skeleton{row(headRowID, "")}, headRowID},
		{"in id order", skeleton{row(headRowID, "r00000001"), row("r00000001", "r00000002"), row("r00000002", "")}, "r00000002"},
		{"out of order", skeleton{row("r00000002", ""), row("r00000001", "r00000002"), row(headRowID, "r00000001")}, "r00000002"},
		{"orphan after the tail", skeleton{row(headRowID, "r00000001"), row("r00000001", ""), row("r00000005", "")}, "r00000001"},
		{"target collected", skeleton{row(headRowID, "r00000001"), row("r00000001", "r00000002")}, "r00000001"},
		{"null pointer", skeleton{{attrRowID: dynamo.S(headRowID), attrNextRow: dynamo.Null}}, headRowID},
	} {
		it, ok := c.sk.tail()
		if got := it[attrRowID].Str(); ok != (c.tail != "") || got != c.tail {
			t.Errorf("%s: tail %q %v, want %q", c.name, got, ok, c.tail)
		}
	}
}

func TestNextRowIDPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on malformed row id")
		}
	}()
	nextRowID("not-a-row")
}

func valPtr(v Value) *Value { return &v }

// TestStalledAppendIsRepaired stalls an appender between its put of the new
// row and its link past T, while GC passes run: the first pass finds the row
// unreachable and stamps it, the second deletes it, and only then does the
// link land, naming a row that is gone. The write must still complete — the
// walk puts the row back once, counted in DAALRepairs, from the link it has
// just written and without a fresh scan — and every later write of the key
// must work, leaving a chain Fsck accepts.
func TestStalledAppendIsRepaired(t *testing.T) {
	const tBound = time.Millisecond
	f := newFixture(t, withConfig(Config{RowCap: 2, T: tBound, ICMinAge: tBound}))
	rt := f.fn("w", func(e *Env, in Value) (Value, error) {
		return dynamo.Null, e.Write("kv", "k", in)
	}, "kv")
	f.mustInvoke("w", dynamo.NInt(1))
	f.mustInvoke("w", dynamo.NInt(2)) // the head is full

	var deleted int
	var afterStall dynamo.Snapshot
	stall := func() {
		FaultStallAppend.Store(nil) // one stall
		for pass := 0; pass < 2; pass++ {
			st, err := rt.RunGarbageCollector()
			if err != nil {
				t.Errorf("gc: %v", err)
			}
			deleted += st.RowsDeleted
			time.Sleep(3 * tBound)
		}
		afterStall = f.store.Metrics().Snapshot()
	}
	FaultStallAppend.Store(&stall)
	defer FaultStallAppend.Store(nil)

	f.mustInvoke("w", dynamo.NInt(3))
	if deleted != 1 {
		t.Fatalf("the GC deleted %d rows during the stall, want the appended row: the stall is vacuous", deleted)
	}
	if n := rt.StatsSnapshot().DAALRepairs; n != 1 {
		t.Errorf("DAALRepairs = %d, want 1", n)
	}
	if n := f.store.Metrics().Snapshot().Sub(afterStall).Ops["query"]; n != 0 {
		t.Errorf("the stalled write scanned %d times after its link, want 0: its repair must check the link it wrote", n)
	}
	for i := int64(4); i <= 8; i++ {
		f.mustInvoke("w", dynamo.NInt(i))
	}
	if got := f.readData("w", "kv", "k"); got.Int() != 8 {
		t.Errorf("k = %v, want 8", got)
	}
	if err := Fsck(rt); err != nil {
		t.Error(err)
	}
}
