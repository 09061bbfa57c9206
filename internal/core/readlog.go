package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dynamo"
	"repro/internal/telemetry"
)

// The read log (Fig 5) makes every value an instance observes — a state
// read, a promise's result — replay identically on re-execution. A logged
// value only has to be durable before the instance's next externally
// visible effect, not before its next read, so the rows are group-committed:
// an unlogged step fetches its value and queues its row, and the queue is
// appended in one TransactWrite of NotExists-guarded inserts immediately
// before every effect boundary (flushReads). Until then the value has
// influenced nothing outside this execution's memory; a crash simply
// forgets it, exactly as if the step had not run yet.

// ErrInstanceSuperseded reports that another live execution of the same
// intent (a collector restart, a redelivered run, a second cluster worker)
// logged one of this execution's queued read steps first, with a different
// value than this execution fetched. Its state is built on a value the log
// does not hold, so it stops before issuing the effect that would have
// depended on it; the intent stays pending and its next execution replays
// the winner's log. Progress is guaranteed: a flush only fails when another
// one succeeded. (A duplicate that fetched the very values the winner logged
// is indistinguishable from a replay of them and simply carries on.) A
// first-launched callee whose deferred intent row another execution created
// first stops with the same error, at the same place: before its first
// effect (materialiseIntent).
var ErrInstanceSuperseded = errors.New("core: instance superseded by a concurrent execution of its intent")

// readLogChunk bounds the rows of one flush TransactWrite (DynamoDB's
// transaction limit is 100 items; 25 keeps frames and WAL records small). A
// longer queue flushes as consecutive chunks in step order, so a crash
// between chunks leaves a logged prefix.
const readLogChunk = 25

// readLogRow is one queued read-log insert: the step key and the value read.
type readLogRow struct {
	step string
	val  Value
}

// readLogState is an instance's view of its read-log partition, shared by
// its Parallel branches: the durable rows known to this execution and the
// rows it fetched but has not flushed yet. mu is held across the load and
// the flush so a branch never passes a boundary while another branch's
// flush of its rows is still in flight.
type readLogState struct {
	mu     sync.Mutex
	loaded bool // logged is complete as of the load (or the intent is fresh)
	// purity holds what the execution did, for the pure-call rule: purity*
	// bits (invoke.go). It sits beside loaded, in padding, so an Env's
	// instance-level state keeps its size.
	purity atomic.Uint32
	logged map[string]Value // step key -> durable value
	queue  []readLogRow     // in step order of arrival
	// stopped, once set, fails every later boundary of this execution the
	// same way, an abort path's and the end of the body included: it was
	// superseded, or could not write its deferred intent row.
	stopped error
}

// replayedRead answers a read step from the log: ok is true when a previous
// execution already logged stepKey, and the value is the one it observed.
// The first call of a re-executed instance loads the whole partition with
// one Query; every later call is a map lookup.
func (e *Env) replayedRead(stepKey string) (Value, bool, error) {
	rl := &e.shared.reads
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if !rl.loaded {
		if err := e.loadReadLog(rl); err != nil {
			return dynamo.Null, false, err
		}
	}
	val, ok := rl.logged[stepKey]
	if ok {
		e.rt.stats.Replays.Add(1)
	}
	return val, ok, nil
}

// loadReadLog (re)reads the instance's durable rows; the caller holds rl.mu.
func (e *Env) loadReadLog(rl *readLogState) error {
	rows, err := e.rt.store.Query(e.rt.readLog, dynamo.S(e.instanceID), dynamo.QueryOpts{})
	if err != nil {
		return err
	}
	rl.logged = make(map[string]Value, len(rows))
	for _, it := range rows {
		rl.logged[it[attrStep].Str()] = it[attrValue]
	}
	rl.loaded = true
	return nil
}

// queueRead records the value an unlogged step just fetched; it becomes
// durable at the next flushReads.
func (e *Env) queueRead(stepKey string, val Value) {
	rl := &e.shared.reads
	rl.mu.Lock()
	rl.queue = append(rl.queue, readLogRow{stepKey, val})
	rl.mu.Unlock()
}

// flushReads appends every queued read-log row, all branches' included, and
// must be called immediately before each effect boundary: any store mutation
// the instance issues, any invocation, and the end of the body before the
// callback, the promise post and done-marking. boundary names the caller for
// the trace. A deferred intent row is written first: effects, and the log
// that makes them replayable, belong to an intent. A refused insert means
// another execution logged some of these steps first: the log is reloaded and
// rows it already holds with the very value this execution fetched are
// dropped from the queue — for those steps this execution is where a replay
// would be — while a differing value means ErrInstanceSuperseded, here and at
// every later boundary of this execution. An unlogged execution has no
// intent and no log: it is refused at any boundary, whichever op led here.
func (e *Env) flushReads(boundary string) error {
	rl := &e.shared.reads
	if rl.purity.Load()&purityUnlogged != 0 && !FaultUnloggedAdmitsWrite.Load() { // see simfault.go
		return e.impure(boundary)
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.stopped == nil && e.intent.deferred {
		// Under mu, so that Parallel branches racing to their first
		// boundaries write the row once.
		if rl.stopped = e.materialiseIntent(boundary); rl.stopped == nil {
			e.intent.deferred = false
		}
	}
	if rl.stopped == nil && !e.intent.deferred && FaultDoneBeforeFlush.Load() {
		rl.stopped = e.rt.markIntentDone(e.instanceID, dynamo.Null) // see simfault.go
	}
	if rl.stopped != nil || len(rl.queue) == 0 {
		return rl.stopped
	}
	t0 := e.rt.spanClock()
	first, rows := rl.queue[0].step, len(rl.queue)
	id := dynamo.S(e.instanceID)
	var err error
	for len(rl.queue) > 0 && err == nil {
		chunk := rl.queue[:min(len(rl.queue), readLogChunk)]
		// The kill between a fetch and its durability: the queued values die
		// with the worker, having influenced nothing.
		e.crash("flush:", chunk[0].step)
		if len(chunk) == 1 {
			// A one-row transaction is a conditional update; stores price it
			// as one (DynamoDB bills and serves transactions at a multiple).
			err = e.rt.store.Update(e.rt.readLog, dynamo.HSK(id, dynamo.S(chunk[0].step)), idAbsent,
				dynamo.Set(dynamo.A(attrValue), chunk[0].val))
		} else {
			ops, sets := make([]dynamo.TxOp, len(chunk)), make([]dynamo.Update, len(chunk))
			for i, r := range chunk {
				sets[i] = dynamo.Set(dynamo.A(attrValue), r.val)
				ops[i] = dynamo.TxOp{Table: e.rt.readLog, Key: dynamo.HSK(id, dynamo.S(r.step)),
					Cond: idAbsent, Updates: sets[i : i+1 : i+1]}
			}
			err = e.rt.store.TransactWrite(ops)
		}
		switch {
		case err == nil:
			rl.queue = rl.queue[len(chunk):]
			e.rt.stats.ReadLogFlushes.Add(1)
			e.rt.stats.ReadLogRows.Add(int64(len(chunk)))
		case errors.Is(err, dynamo.ErrConditionFailed):
			if err = e.adoptLogged(rl); err != nil && errors.Is(err, ErrInstanceSuperseded) {
				err = e.superseded(boundary, "lost its read-log flush")
				rl.stopped = err
			}
		}
	}
	if e.rt.tel != nil {
		e.namedSpan(t0, telemetry.KindReadLogFlush, first, fmt.Sprintf("%s rows=%d", boundary, rows), false, nil, err)
	}
	return err
}

// superseded counts and describes this execution's stop before boundary.
func (e *Env) superseded(boundary, why string) error {
	e.rt.stats.InstancesSuperseded.Add(1)
	return fmt.Errorf("%w: %s before %s: %s", ErrInstanceSuperseded, e.instanceID, boundary, why)
}

// materialiseIntent writes the deferred intent row of a first-launched callee
// at its first effect boundary — the put handleCall skipped, with the start
// time the execution has been using; the caller holds the read log's mutex. A
// refused put means an eager execution of this id (the caller's retry or
// re-execution) owns the intent. The crash point ahead of the put holds the
// execution to the synchrony bound (§5) where it creates state: an instance
// past its platform deadline, or abandoned by its caller, dies here — the
// collector may already have gone by whatever another execution of the id left
// behind, so a put that succeeds would prove nothing.
func (e *Env) materialiseIntent(boundary string) error {
	e.crash("intent:pre", "")
	err := e.rt.createIntent(e.intent)
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return e.superseded(boundary, "its deferred intent was created by another execution")
	}
	if err == nil {
		e.crash("intent:logged", "")
	}
	return err
}

// endBody is the boundary at the end of the body. An instance whose intent
// row is still deferred crossed no boundary: it is effect-free, nothing
// durable was computed from its reads and its result is the caller's to
// keep, so the queue is left to die with the execution and nothing is
// written. Every other instance flushes: the result is about to leave this
// execution (callback, promise post, done-marking, reply), and every value it
// was computed from must be logged first so that any re-execution computes
// the identical result.
func (e *Env) endBody() (effectFree bool, _ error) {
	rl := &e.shared.reads
	rl.mu.Lock()
	effectFree = e.intent.deferred && rl.stopped == nil
	rl.mu.Unlock()
	if effectFree {
		return true, nil
	}
	return false, e.flushReads("return")
}

// adoptLogged reconciles the queue with the log after a refused flush; the
// caller holds rl.mu. Every conflict drops at least the row that caused it
// or ends the execution, so the flush loop terminates.
func (e *Env) adoptLogged(rl *readLogState) error {
	if err := e.loadReadLog(rl); err != nil {
		return err
	}
	kept := make([]readLogRow, 0, len(rl.queue))
	for _, r := range rl.queue {
		logged, ok := rl.logged[r.step]
		if !ok {
			kept = append(kept, r)
		} else if !r.val.Equal(logged) && !FaultAdoptIgnoresDiffer.Load() { // see simfault.go
			return ErrInstanceSuperseded
		}
	}
	if len(kept) == len(rl.queue) {
		// Refused, yet none of the rows is in the log: they were collected in
		// between (a zombie outliving its intent). Nothing to converge on.
		return ErrInstanceSuperseded
	}
	rl.queue = kept
	return nil
}

// loggedMutate and update are the two ways an instance mutates the store —
// a logged step on a data table, a direct row update on the invoke log or a
// transaction registry — and therefore the effect boundaries: the queued
// read-log rows are flushed first, so no durable row is ever computed from a
// value a re-execution could observe differently.
func (e *Env) loggedMutate(layer kvLayer, boundary, table, key, stepKey string, mut mutation) (bool, error) {
	if err := e.flushReads(boundary); err != nil {
		return false, err
	}
	mut.fresh = e.intent.fresh
	return layer.loggedMutate(table, key, e.logKey(stepKey), mut)
}

func (e *Env) update(boundary, table string, key dynamo.Key, cond dynamo.Cond, ups ...dynamo.Update) error {
	if err := e.flushReads(boundary); err != nil {
		return err
	}
	return e.rt.store.Update(table, key, cond, ups...)
}
