package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dynamo"
)

// Property tests over the core data structures and protocols, using
// testing/quick to drive randomized schedules and inputs.

// TestDAALInvariantsUnderRandomOps drives random logged writes/condWrites
// through a DAAL and checks the structural invariants of §4.1/§4.3 after
// every batch:
//   - the chain from the head is acyclic and ends at a row without NextRow,
//   - every non-tail chained row is full (rows only gain a successor when
//     full),
//   - LogSize always equals the number of RecentWrites entries,
//   - every issued logKey appears in exactly one row,
//   - the tail's value equals the value of the last *effective* write.
func TestDAALInvariantsUnderRandomOps(t *testing.T) {
	check := func(seed int64, capSel uint8) bool {
		rowCap := 1 + int(capSel%5)
		f := newFixture(t, withConfig(Config{RowCap: rowCap, T: DefaultT}))
		rt := f.fn("d", func(e *Env, in Value) (Value, error) { return dynamo.Null, nil }, "items")
		d := &daal{rt: rt, table: rt.dataTable("items")}
		rng := rand.New(rand.NewSource(seed))

		type issued struct {
			logKey  string
			applied bool
			value   int64
		}
		var history []issued
		lastEffective := int64(-1)
		n := 10 + rng.Intn(40)
		for i := 0; i < n; i++ {
			logKey := fmt.Sprintf("i%d#0.%06d", rng.Intn(3), i)
			v := int64(i)
			val := dynamo.NInt(v)
			mut := mutation{setVal: &val}
			wantApplied := true
			if rng.Intn(3) == 0 {
				// Conditional write guarded on the current value (a fresh
				// head stores Null until the first effective write).
				cur := dynamo.Eq(dynamo.A(attrValue), dynamo.NInt(lastEffective))
				if lastEffective < 0 {
					cur = dynamo.Eq(dynamo.A(attrValue), dynamo.Null)
				}
				cond := dynamo.Or(dynamo.NotExists(dynamo.A(attrValue)), cur)
				if rng.Intn(2) == 0 {
					cond = dynamo.Eq(dynamo.A(attrValue), dynamo.NInt(-999)) // never true
					wantApplied = false
				}
				mut.cond = cond
			}
			ok, err := d.loggedWrite("k", logKey, mut)
			if err != nil {
				t.Logf("write error: %v", err)
				return false
			}
			if ok != wantApplied {
				t.Logf("op %d: applied=%v want %v", i, ok, wantApplied)
				return false
			}
			history = append(history, issued{logKey, ok, v})
			if ok {
				lastEffective = v
			}
		}

		rows, order, err := d.chain("k")
		if err != nil {
			return false
		}
		// Non-tail chained rows are full.
		for _, id := range order[:len(order)-1] {
			if rows[id].logSize != rowCap {
				t.Logf("non-tail row %s not full: %d/%d", id, rows[id].logSize, rowCap)
				return false
			}
		}
		// LogSize == len(recent); each logKey in exactly one row.
		seen := map[string]int{}
		for id, r := range rows {
			if r.logSize != r.recent.MapLen() {
				t.Logf("row %s logSize %d != entries %d", id, r.logSize, r.recent.MapLen())
				return false
			}
			for k := range r.recent.Entries() {
				seen[k]++
			}
		}
		for _, h := range history {
			if seen[h.logKey] != 1 {
				t.Logf("logKey %s appears %d times", h.logKey, seen[h.logKey])
				return false
			}
		}
		// Tail value = last effective write.
		tail := rows[order[len(order)-1]]
		if lastEffective >= 0 && tail.value.Int() != lastEffective {
			t.Logf("tail value %v != last effective %d", tail.value, lastEffective)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestReplayedOutcomesStableQuick replays random prefixes of an op sequence
// and requires identical outcomes — the determinism that §3.1's replay
// machinery rests on.
func TestReplayedOutcomesStableQuick(t *testing.T) {
	check := func(seed int64) bool {
		f := newFixture(t, withConfig(Config{RowCap: 3, T: DefaultT}))
		rt := f.fn("d", func(e *Env, in Value) (Value, error) { return dynamo.Null, nil }, "items")
		d := &daal{rt: rt, table: rt.dataTable("items")}
		rng := rand.New(rand.NewSource(seed))

		var keys []string
		var outcomes []bool
		for i := 0; i < 20; i++ {
			logKey := fmt.Sprintf("i#0.%06d", i)
			val := dynamo.NInt(int64(rng.Intn(5)))
			cond := dynamo.Eq(dynamo.A(attrValue), dynamo.NInt(int64(rng.Intn(5))))
			ok, err := d.loggedWrite("k", logKey, mutation{cond: cond, setVal: &val})
			if err != nil {
				return false
			}
			keys = append(keys, logKey)
			outcomes = append(outcomes, ok)
		}
		// Replay every op (with a *different* value — it must not apply).
		for i, logKey := range keys {
			val := dynamo.NInt(999)
			ok, err := d.loggedWrite("k", logKey, mutation{cond: dynamo.True(), setVal: &val})
			if err != nil || ok != outcomes[i] {
				t.Logf("replay %d: ok=%v want %v err=%v", i, ok, outcomes[i], err)
				return false
			}
		}
		row, _, _ := d.currentRow("k")
		if row.value.Int() == 999 {
			t.Log("replay re-applied a value")
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestEnvelopeRoundTripQuick checks encode/decode identity over randomized
// envelopes — the wire format every workflow hop depends on.
func TestEnvelopeRoundTripQuick(t *testing.T) {
	check := func(kindSel uint8, id, callerFn, callerInst, callerStep, calleeID string,
		async, hasRes bool, txnSel uint8) bool {
		kinds := []string{kindCall, kindCallback, kindAsyncRegister, kindAsyncRun}
		ev := envelope{
			Kind:           kinds[int(kindSel)%len(kinds)],
			InstanceID:     id,
			Input:          dynamo.S("payload"),
			Async:          async,
			CallerFn:       callerFn,
			CallerInstance: callerInst,
			CalleeID:       calleeID,
		}
		if callerInst != "" {
			ev.CallerStep = callerStep
		}
		if hasRes {
			ev.Result = dynamo.NInt(42)
			ev.HasRes = true
		}
		switch txnSel % 3 {
		case 1:
			ev.Txn = &TxnContext{ID: "t1", Mode: TxExecute, Start: 123}
		case 2:
			ev.Txn = &TxnContext{ID: "t2", Mode: TxCommit, Start: 456}
		}
		got := decodeEnvelope(ev.encode())
		if got.Kind != ev.Kind || got.InstanceID != ev.InstanceID ||
			got.Async != ev.Async || got.CallerFn != ev.CallerFn ||
			got.CallerInstance != ev.CallerInstance || got.CalleeID != ev.CalleeID ||
			got.HasRes != ev.HasRes || !got.Input.Equal(ev.Input) {
			return false
		}
		if ev.CallerInstance != "" && got.CallerStep != ev.CallerStep {
			return false
		}
		if (ev.Txn == nil) != (got.Txn == nil) {
			return false
		}
		if ev.Txn != nil && (got.Txn.ID != ev.Txn.ID || got.Txn.Mode != ev.Txn.Mode || got.Txn.Start != ev.Txn.Start) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRawClientPayloadsAccepted ensures arbitrary client payloads (not
// envelopes) decode as plain calls, so Beldi SSFs remain directly invokable.
func TestRawClientPayloadsAccepted(t *testing.T) {
	check := func(s string, n float64, b bool) bool {
		for _, raw := range []Value{
			dynamo.S(s), dynamo.N(n), dynamo.Bool(b),
			dynamo.L(dynamo.S(s)),
			dynamo.M(map[string]Value{"user": dynamo.S(s)}),
		} {
			ev := decodeEnvelope(raw)
			if ev.Kind != kindCall || !ev.Input.Equal(raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestWaitDiePriorityTotalOrderQuick: olderOrSame must be a total order
// (antisymmetric, transitive over samples) so wait-die can never cycle.
func TestWaitDiePriorityTotalOrderQuick(t *testing.T) {
	type txn struct {
		start int64
		id    string
	}
	gen := func(r *rand.Rand) txn {
		return txn{start: int64(r.Intn(4)), id: fmt.Sprintf("t%d", r.Intn(4))}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b, c := gen(rng), gen(rng), gen(rng)
		ab := olderOrSame(a.start, a.id, b.start, b.id)
		ba := olderOrSame(b.start, b.id, a.start, a.id)
		if ab && ba && !(a.start == b.start && a.id == b.id) {
			t.Fatalf("antisymmetry violated: %v %v", a, b)
		}
		if !ab && !ba {
			t.Fatalf("totality violated: %v %v", a, b)
		}
		bc := olderOrSame(b.start, b.id, c.start, c.id)
		ac := olderOrSame(a.start, a.id, c.start, c.id)
		if ab && bc && !ac {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

// TestGCIdempotentQuick: running the GC k extra times changes nothing once
// it has converged (at-least-once safety of §5).
func TestGCIdempotentQuick(t *testing.T) {
	f := newFixture(t, withConfig(Config{RowCap: 2, T: 2 * time.Millisecond, ICMinAge: time.Millisecond}))
	f.fn("w", counterBody, "counter")
	rt := f.rts["w"]
	for i := 0; i < 12; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	for pass := 0; pass < 4; pass++ {
		time.Sleep(4 * time.Millisecond)
		if _, err := rt.RunGarbageCollector(); err != nil {
			t.Fatal(err)
		}
	}
	bytesBefore, _ := f.store.TableBytes(rt.dataTable("counter"))
	intentsBefore, _ := f.store.TableItemCount(rt.intentTable)
	for pass := 0; pass < 3; pass++ {
		st, err := rt.RunGarbageCollector()
		if err != nil {
			t.Fatal(err)
		}
		if st.RowsDeleted != 0 || st.IntentsDeleted != 0 {
			t.Errorf("converged GC still deleted: %+v", st)
		}
	}
	bytesAfter, _ := f.store.TableBytes(rt.dataTable("counter"))
	intentsAfter, _ := f.store.TableItemCount(rt.intentTable)
	if bytesBefore != bytesAfter || intentsBefore != intentsAfter {
		t.Errorf("idempotence violated: bytes %d→%d intents %d→%d",
			bytesBefore, bytesAfter, intentsBefore, intentsAfter)
	}
	if got := f.readData("w", "counter", "k"); got.Int() != 12 {
		t.Errorf("counter = %v", got)
	}
}
