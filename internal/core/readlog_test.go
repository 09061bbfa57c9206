package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
)

// The seam the group-committed read log creates (readlog.go): between a
// read's fetch and the flush that makes its row durable, the value lives
// only in the execution's memory. These tests pin what may and may not
// happen in that window — under a concurrent duplicate execution, under a
// kill on either side of the flush, across Parallel branches, and across the
// chunks of a long batch.

// foreignWrite sets table/key of fn's runtime as some other instance would.
var foreignSeq atomic.Int64

func (f *fixture) foreignWrite(fn, table, key string, v Value) {
	f.t.Helper()
	rt := f.rts[fn]
	d := daal{rt: rt, table: rt.dataTable(table)}
	logKey := fmt.Sprintf("foreign-%d#0.000001", foreignSeq.Add(1))
	if _, err := d.loggedWrite(key, logKey, mutation{setVal: &v}); err != nil {
		f.t.Fatal(err)
	}
}

// readLogOf returns the instance's durable read-log values by step key.
func (f *fixture) readLogOf(fn, id string) map[string]Value {
	f.t.Helper()
	rows, err := f.store.Query(f.rts[fn].readLog, dynamo.S(id), dynamo.QueryOpts{})
	if err != nil {
		f.t.Fatal(err)
	}
	out := make(map[string]Value, len(rows))
	for _, it := range rows {
		out[it[attrStep].Str()] = it[attrValue]
	}
	return out
}

// killAt is a FaultPlan that runs do and then kills the first instance of fn
// to reach label — a kill with a foreign event landing at the same instant.
type killAt struct {
	fn, label string
	do        func()
	fired     atomic.Bool
}

func (k *killAt) ShouldCrash(fn, label string, _ int) bool {
	if fn != k.fn || label != k.label || !k.fired.CompareAndSwap(false, true) {
		return false
	}
	if k.do != nil {
		k.do()
	}
	return true
}

// sumBody reads kv/a and kv/b, writes their sum to kv/sum and returns it.
func sumBody(e *Env, _ Value) (Value, error) {
	a, err := e.Read("kv", "a")
	if err != nil {
		return dynamo.Null, err
	}
	b, err := e.Read("kv", "b")
	if err != nil {
		return dynamo.Null, err
	}
	sum := dynamo.NInt(a.Int() + b.Int())
	return sum, e.Write("kv", "sum", sum)
}

func TestReadLogDuplicateExecutionIsSuperseded(t *testing.T) {
	// Execution A of an intent is parked between its two reads; a foreign
	// write changes what the first read would see; execution B of the SAME
	// intent (what a collector restart or a redelivered run is) reads both
	// values, flushes, writes, and dies right after its write. A resumes
	// holding a value the log does not: its flush must lose, it must stop
	// with ErrInstanceSuperseded before its write is issued, and execution C
	// must replay B's values without querying state.
	var f *fixture
	parked, resume := make(chan struct{}), make(chan struct{})
	var parkedOnce atomic.Bool
	f = newFixture(t,
		withFaults(atCrashPoint{fn: "w", label: "read:post:0.000001", do: func() {
			if parkedOnce.CompareAndSwap(false, true) {
				close(parked)
				<-resume
			}
		}}),
		withFaults(&platform.CrashOnce{Function: "w", Label: "write:post:0.000003"}))
	var idMu sync.Mutex
	var id string
	w := f.fn("w", func(e *Env, in Value) (Value, error) {
		idMu.Lock()
		id = e.InstanceID()
		idMu.Unlock()
		return sumBody(e, in)
	}, "kv")
	f.foreignWrite("w", "kv", "a", dynamo.NInt(1))
	f.foreignWrite("w", "kv", "b", dynamo.NInt(2))

	errA := make(chan error, 1)
	go func() {
		_, err := f.invoke("w", dynamo.Null)
		errA <- err
	}()
	<-parked
	f.foreignWrite("w", "kv", "a", dynamo.NInt(10))
	idMu.Lock()
	dup := envelope{Kind: kindCall, InstanceID: id}.encode()
	idMu.Unlock()
	if _, err := f.plat.Invoke("w", dup); err == nil {
		t.Fatal("execution B survived its crash point after the write")
	}
	if got := f.readData("w", "kv", "sum"); got.Int() != 12 {
		t.Fatalf("sum after B = %v, want 12 (10 + 2)", got)
	}
	close(resume)
	if err := <-errA; !errors.Is(err, ErrInstanceSuperseded) {
		t.Fatalf("execution A returned %v, want ErrInstanceSuperseded", err)
	}
	st := w.StatsSnapshot()
	if st.ReadLogFlushes != 1 || st.InstancesSuperseded != 1 {
		t.Errorf("%d flushes won, %d executions superseded; want exactly 1 and 1", st.ReadLogFlushes, st.InstancesSuperseded)
	}
	if got := f.readData("w", "kv", "sum"); got.Int() != 12 {
		t.Errorf("sum after A gave up = %v: the loser's write was issued", got)
	}

	before := f.store.Metrics().Snapshot()
	ret, err := f.plat.Invoke("w", dup)
	d := f.store.Metrics().Snapshot().Sub(before)
	if _, done, _, _ := w.intentDone(id); err != nil || !done || ret.Int() != 12 {
		t.Fatalf("execution C: done=%v ret=%v err=%v, want the winner's 12", done, ret, err)
	}
	// C's queries: one read-log load and the write's skeleton scan — no state
	// query per read.
	if q := d.Ops["query"]; q != 2 {
		t.Errorf("execution C issued %d queries, want 2 (log load + the write's scan)", q)
	}
	log := f.readLogOf("w", id)
	if len(log) != 2 || log["0.000001"].Int() != 10 || log["0.000002"].Int() != 2 {
		t.Errorf("read log = %v, want the winner's {10, 2}", log)
	}
	if st := w.StatsSnapshot(); st.ReadLogFlushes != 1 {
		t.Errorf("%d flushes after the replay, want still 1", st.ReadLogFlushes)
	}
	if err := Fsck(w); err != nil {
		t.Error(err)
	}
}

func TestReadLogDuplicateWithEqualValuesCarriesOn(t *testing.T) {
	// The same two live executions, but nothing changes underneath them: the
	// parked execution fetched the very values the other one logged, so its
	// refused flush finds them in the log, adopts them, and it finishes as a
	// replay would — no error for its client, no second effect. This is the
	// slow-but-alive instance a collector restarts.
	var f *fixture
	parked, resume := make(chan struct{}), make(chan struct{})
	var parkedOnce atomic.Bool
	f = newFixture(t, withFaults(atCrashPoint{fn: "w", label: "read:post:0.000001", do: func() {
		if parkedOnce.CompareAndSwap(false, true) {
			close(parked)
			<-resume
		}
	}}))
	var id atomic.Value
	w := f.fn("w", func(e *Env, in Value) (Value, error) {
		id.Store(e.InstanceID())
		return sumBody(e, in)
	}, "kv")
	f.foreignWrite("w", "kv", "a", dynamo.NInt(1))
	f.foreignWrite("w", "kv", "b", dynamo.NInt(2))

	type reply struct {
		out Value
		err error
	}
	replyA := make(chan reply, 1)
	go func() {
		out, err := f.invoke("w", dynamo.Null)
		replyA <- reply{out, err}
	}()
	<-parked
	dup := envelope{Kind: kindCall, InstanceID: id.Load().(string)}.encode()
	if out, err := f.plat.Invoke("w", dup); err != nil || out.Int() != 3 {
		t.Fatalf("execution B: %v, %v", out, err)
	}
	close(resume)
	if r := <-replyA; r.err != nil || r.out.Int() != 3 {
		t.Fatalf("execution A: %v, %v; want it to carry on to 3", r.out, r.err)
	}
	st := w.StatsSnapshot()
	if st.InstancesSuperseded != 0 || st.ReadLogFlushes != 1 || st.ReadLogRows != 2 {
		t.Errorf("%d superseded, %d flushes of %d rows; want 0, and B's one flush of 2", st.InstancesSuperseded, st.ReadLogFlushes, st.ReadLogRows)
	}
	if got := f.readData("w", "kv", "sum"); got.Int() != 3 {
		t.Errorf("sum = %v, want 3", got)
	}
	if err := Fsck(w); err != nil {
		t.Error(err)
	}
}

// callerOf registers "front", which invokes w and records what it was told.
func callerOf(f *fixture) *Runtime {
	return f.fn("front", func(e *Env, in Value) (Value, error) {
		out, err := e.SyncInvoke("w", in)
		if err != nil {
			return dynamo.Null, err
		}
		return out, e.Write("seen", "w", out)
	}, "seen")
}

func TestReadLogKillBeforeFlushForgetsTheValue(t *testing.T) {
	// The callee dies between its read and the flush at its write boundary,
	// at the instant a foreign write changes the value. Nothing durable and
	// no caller ever saw the old value, so the re-execution is free to
	// observe the new one — and everything downstream agrees on it.
	var f *fixture
	f = newFixture(t, withFaults(&killAt{fn: "w", label: "flush:0.000001", do: func() {
		f.foreignWrite("w", "kv", "a", dynamo.NInt(10))
	}}))
	var ids []string
	var mu sync.Mutex
	w := f.fn("w", func(e *Env, _ Value) (Value, error) {
		mu.Lock()
		ids = append(ids, e.InstanceID())
		mu.Unlock()
		a, err := e.Read("kv", "a")
		if err != nil {
			return dynamo.Null, err
		}
		return a, e.Write("kv", "copy", a)
	}, "kv")
	callerOf(f)
	f.foreignWrite("w", "kv", "a", dynamo.NInt(1))

	out := f.mustInvoke("front", dynamo.Null) // the caller re-invokes the dead callee in place
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("executions of w: %v, want two of one intent", ids)
	}
	log := f.readLogOf("w", ids[0])
	if out.Int() != 10 || len(log) != 1 || log["0.000001"].Int() != 10 {
		t.Errorf("caller saw %v, read log %v; want the re-execution's 10 everywhere", out, log)
	}
	if got := f.readData("w", "kv", "copy"); got.Int() != 10 {
		t.Errorf("copy = %v, want 10", got)
	}
	if got := f.readData("front", "seen", "w"); got.Int() != 10 {
		t.Errorf("front recorded %v, want 10", got)
	}
	if st := w.StatsSnapshot(); st.InstancesSuperseded != 0 || st.ReadLogFlushes != 1 {
		t.Errorf("%d superseded, %d flushes; a kill is not a duplicate", st.InstancesSuperseded, st.ReadLogFlushes)
	}
}

func TestReadLogKillAfterFlushReplaysTheValue(t *testing.T) {
	// The callee dies right after the flush at the end of its body — before
	// the callback, and again in the window after the callback was sent —
	// while a foreign write changes the value. The row is durable, so the
	// re-execution must compute the identical result from it. (The callee
	// writes before it reads, so it owns an intent and a log; an effect-free
	// callee keeps neither — see lazyintent_test.go.)
	for _, label := range []string{"body:done", "callback:sent"} {
		t.Run(label, func(t *testing.T) {
			var f *fixture
			f = newFixture(t, withFaults(&killAt{fn: "w", label: label, do: func() {
				f.foreignWrite("w", "kv", "a", dynamo.NInt(10))
			}}))
			var id atomic.Value
			w := f.fn("w", func(e *Env, _ Value) (Value, error) {
				id.Store(e.InstanceID())
				if err := e.Write("kv", "began", dynamo.Bool(true)); err != nil {
					return dynamo.Null, err
				}
				return e.Read("kv", "a")
			}, "kv")
			front := callerOf(f)
			f.foreignWrite("w", "kv", "a", dynamo.NInt(1))

			out := f.mustInvoke("front", dynamo.Null)
			f.recoverAll()
			log := f.readLogOf("w", id.Load().(string))
			if out.Int() != 1 || len(log) != 1 || log["0.000002"].Int() != 1 {
				t.Errorf("caller saw %v, read log %v; want the logged 1", out, log)
			}
			if got := f.readData("front", "seen", "w"); got.Int() != 1 {
				t.Errorf("front recorded %v, want 1", got)
			}
			if _, done, ret, _ := w.intentDone(id.Load().(string)); !done || ret.Int() != 1 {
				t.Errorf("callee intent: done=%v ret=%v, want done with 1", done, ret)
			}
			if got := w.StatsSnapshot().Replays; got < 1 {
				t.Errorf("Replays = %d, want the re-execution's read counted", got)
			}
			for _, rt := range []*Runtime{w, front} {
				if err := Fsck(rt); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestReadLogParallelBranchesShareOneFlush(t *testing.T) {
	// Two branches each queue two reads; only the first branch reaches a
	// boundary. Its flush must carry the other branch's rows too (that
	// branch's next effect may not wait for a flush of its own), in one
	// transaction whose step keys — branch-qualified — cannot collide.
	f := newFixture(t)
	var flushesAtWrite, rowsAtWrite int64
	var logAtWrite map[string]Value
	w := f.fn("w", func(e *Env, _ Value) (Value, error) {
		otherRead := make(chan struct{})
		err := e.Parallel(
			func(b *Env) error {
				for _, k := range []string{"a", "b"} {
					if _, err := b.Read("kv", k); err != nil {
						return err
					}
				}
				<-otherRead
				if err := b.Write("kv", "out", dynamo.S("x")); err != nil {
					return err
				}
				st := b.rt.StatsSnapshot()
				flushesAtWrite, rowsAtWrite = st.ReadLogFlushes, st.ReadLogRows
				logAtWrite = f.readLogOf("w", b.InstanceID())
				return nil
			},
			func(b *Env) error {
				defer close(otherRead)
				for _, k := range []string{"c", "d"} {
					if _, err := b.Read("kv", k); err != nil {
						return err
					}
				}
				return nil
			},
		)
		return dynamo.Null, err
	}, "kv")
	f.mustInvoke("w", dynamo.Null)
	if flushesAtWrite != 1 || rowsAtWrite != 4 || len(logAtWrite) != 4 {
		t.Fatalf("at the first branch's write: %d flushes, %d rows, log %v; want 1 flush of all 4 rows",
			flushesAtWrite, rowsAtWrite, logAtWrite)
	}
	for _, step := range []string{"0-1-0.000001", "0-1-0.000002", "0-1-1.000001", "0-1-1.000002"} {
		if _, ok := logAtWrite[step]; !ok {
			t.Errorf("step %s missing from the flushed log %v", step, logAtWrite)
		}
	}
	if st := w.StatsSnapshot(); st.ReadLogFlushes != 1 || st.ReadLogRows != 4 {
		t.Errorf("whole instance: %d flushes of %d rows, want 1 of 4", st.ReadLogFlushes, st.ReadLogRows)
	}
}

func TestReadLogParallelBranchesRaceTheirBoundaries(t *testing.T) {
	// Every branch reads and writes on its own: flushes and queue appends
	// from different branches interleave freely (the -race half of the
	// Parallel seam), yet every read is logged exactly once.
	const branches, rounds = 4, 6
	f := newFixture(t)
	var id atomic.Value
	w := f.fn("w", func(e *Env, _ Value) (Value, error) {
		id.Store(e.InstanceID())
		fns := make([]func(*Env) error, branches)
		for i := range fns {
			key := fmt.Sprintf("k%d", i)
			fns[i] = func(b *Env) error {
				for r := 0; r < rounds; r++ {
					v, err := b.Read("kv", key)
					if err != nil {
						return err
					}
					if err := b.Write("kv", key, dynamo.NInt(v.Int()+1)); err != nil {
						return err
					}
				}
				return nil
			}
		}
		return dynamo.Null, e.Parallel(fns...)
	}, "kv")
	f.mustInvoke("w", dynamo.Null)
	for i := 0; i < branches; i++ {
		if got := f.readData("w", "kv", fmt.Sprintf("k%d", i)); got.Int() != rounds {
			t.Errorf("k%d = %v, want %d", i, got, rounds)
		}
	}
	if n := len(f.readLogOf("w", id.Load().(string))); n != branches*rounds {
		t.Errorf("%d read-log rows, want %d", n, branches*rounds)
	}
	if st := w.StatsSnapshot(); st.ReadLogRows != branches*rounds || st.InstancesSuperseded != 0 {
		t.Errorf("%d rows flushed, %d superseded", st.ReadLogRows, st.InstancesSuperseded)
	}
	if err := Fsck(w); err != nil {
		t.Error(err)
	}
}

// txSizes wraps a backend, recording the op count of every TransactWrite.
type txSizes struct {
	storage.Backend
	mu    sync.Mutex
	sizes []int
}

func (s *txSizes) TransactWrite(ops []storage.TxOp) error {
	s.mu.Lock()
	s.sizes = append(s.sizes, len(ops))
	s.mu.Unlock()
	return s.Backend.TransactWrite(ops)
}

func TestReadLogLongBatchFlushesInChunks(t *testing.T) {
	// A 100-read instance (the shape of travel's inventory audit) flushes at
	// its return in bounded chunks, in step order. Killed before the second
	// chunk, its re-execution replays the logged prefix and fetches the rest
	// afresh — here after a foreign write, so the two are told apart.
	const reads = 100
	store := &txSizes{Backend: dynamo.NewStore()}
	var f *fixture
	f = newFixture(t, withStore(store),
		withFaults(&killAt{fn: "w", label: fmt.Sprintf("flush:0.%06d", readLogChunk+1), do: func() {
			f.foreignWrite("w", "kv", "a", dynamo.NInt(10))
		}}))
	var id atomic.Value
	w := f.fn("w", func(e *Env, _ Value) (Value, error) {
		id.Store(e.InstanceID())
		var sum int64
		for i := 0; i < reads; i++ {
			v, err := e.Read("kv", "a")
			if err != nil {
				return dynamo.Null, err
			}
			sum += v.Int()
		}
		return dynamo.NInt(sum), nil
	}, "kv")
	f.foreignWrite("w", "kv", "a", dynamo.NInt(1))

	if _, err := f.invoke("w", dynamo.Null); err == nil {
		t.Fatal("the first execution survived the kill between its chunks")
	}
	if n := len(f.readLogOf("w", id.Load().(string))); n != readLogChunk {
		t.Fatalf("%d rows logged before the kill, want the first chunk's %d", n, readLogChunk)
	}
	f.recoverAll()
	want := int64(readLogChunk*1 + (reads-readLogChunk)*10)
	if _, done, ret, err := w.intentDone(id.Load().(string)); err != nil || !done || ret.Int() != want {
		t.Fatalf("re-execution: done=%v ret=%v err=%v, want %d (logged prefix of 1s, fresh 10s)", done, ret, err, want)
	}
	log := f.readLogOf("w", id.Load().(string))
	for i := 1; i <= reads; i++ {
		v := int64(10)
		if i <= readLogChunk {
			v = 1
		}
		if got := log[fmt.Sprintf("0.%06d", i)]; got.Int() != v {
			t.Fatalf("step %d logged %v, want %d", i, got, v)
		}
	}
	store.mu.Lock()
	sizes := append([]int(nil), store.sizes...)
	store.mu.Unlock()
	if want := []int{25, 25, 25, 25}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("flush transactions carried %v rows, want %v", sizes, want)
	}
	st := w.StatsSnapshot()
	if st.ReadLogFlushes != 4 || st.ReadLogRows != reads || st.Replays != readLogChunk {
		t.Errorf("%d flushes of %d rows, %d replays; want 4, %d, %d", st.ReadLogFlushes, st.ReadLogRows, st.Replays, reads, readLogChunk)
	}
}
