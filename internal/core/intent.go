package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/dynamo"
)

// The intent table (§3.3, Figure 3) records every instance an SSF intends
// to execute: instance id, completion status, the full invocation envelope
// (so the intent collector can re-issue it verbatim), the return value, and
// timestamps. The "Pending" attribute exists only while the intent is
// unfinished, forming the sparse secondary index the collector queries
// (the paper's second IC optimization).

// pendingMarker is the index hash value for unfinished intents.
const pendingMarker = "1"

// intentRecord is a decoded intent row.
type intentRecord struct {
	id         string
	done       bool
	async      bool
	args       envelope
	ret        Value
	startTime  int64
	lastLaunch int64
	launches   int64 // launches so far, the in-process fire included; 0 until a claim counts one
	finishTime int64
	hasFinish  bool
	// fresh is true when this execution is the intent's first, not a replayed
	// re-execution, so no log row of the instance can pre-date it: ensureIntent
	// created the row in this call, or the launch is a deferred first one.
	// In-memory only (telemetry's restart marker; what lets newEnv start with
	// a known-empty read log), never stored.
	fresh bool
	// deferred is true while a first-launched callee's row is not written yet
	// (handleCall): its first effect boundary writes it (flushReads, under the
	// read log's mutex) and an execution that ends with it still set is
	// effect-free. In-memory only.
	deferred bool
}

func decodeIntent(it dynamo.Item) *intentRecord {
	r := &intentRecord{
		id:         it[attrInstanceID].Str(),
		done:       it[attrDone].BoolVal(),
		async:      it[attrAsync].BoolVal(),
		ret:        it[attrRet],
		startTime:  it[attrStartTime].Int(),
		lastLaunch: it[attrLastLaunch].Int(),
		launches:   it[attrLaunches].Int(),
	}
	if v, ok := it[attrArgs]; ok {
		r.args = decodeEnvelope(v)
	}
	if v, ok := it[attrFinishTime]; ok {
		r.finishTime = v.Int()
		r.hasFinish = true
	}
	return r
}

// newIntent is the record of an instance first launched now, as createIntent
// stores it. Its start time — the wait-die priority — is fixed here, so a
// deferred intent hands its transactions the very value its row will hold.
func (rt *Runtime) newIntent(id string, ev envelope) *intentRecord {
	now := rt.now()
	return &intentRecord{id: id, args: ev, async: ev.Async, startTime: now, lastLaunch: now, fresh: true}
}

// createIntent writes rec's row unless the instance already has one
// (dynamo.ErrConditionFailed) — the only place an intent row is created, on
// entry (ensureIntent) or at a deferred instance's first effect boundary
// (materialiseIntent).
func (rt *Runtime) createIntent(rec *intentRecord) error {
	err := rt.store.Put(rt.intentTable, rec.item(), instanceAbsent)
	if err == nil {
		rt.stats.IntentsStarted.Add(1)
	}
	return err
}

// item is rec's intent row as it is first written: pending, not done.
func (rec *intentRecord) item() dynamo.Item {
	return dynamo.Item{
		attrInstanceID: dynamo.S(rec.id),
		attrDone:       dynamo.Bool(false),
		attrPending:    dynamo.S(pendingMarker),
		attrArgs:       rec.args.encode(),
		attrAsync:      dynamo.Bool(rec.async),
		attrStartTime:  dynamo.NInt(rec.startTime),
		attrLastLaunch: dynamo.NInt(rec.lastLaunch),
	}
}

// ScheduledIntent registers an asynchronous run of this SSF with input as
// instance id — asyncInvoke's two steps for a durable timer's occurrence.
// put is step 1, the intent row's put guarded on its absence, for the
// transaction that also advances the timer, so the occurrence and the
// advance commit together and the id deduplicates the occurrence; fire is
// step 2, the in-process fire, to run once that transaction commits. A lost
// fire leaves the intent pending for the intent collector.
func (rt *Runtime) ScheduledIntent(id string, input Value) (put dynamo.TxOp, fire func()) {
	run := envelope{Kind: kindAsyncRun, InstanceID: id, Input: input, Async: true}
	put = dynamo.TxOp{Table: rt.intentTable, Key: dynamo.HK(dynamo.S(id)), Put: rt.newIntent(id, run).item(), Cond: instanceAbsent}
	return put, func() { _ = rt.plat.InvokeAsyncInternal(rt.fn, run.encode()) }
}

// ensureIntent makes the instance's intent row exist, creating it on first
// execution and reading it back on re-execution (the first operation of
// every Beldi SSF but a first-launched callee, §3.3). The returned record
// carries the authoritative start time — the wait-die priority — which is
// the *original* execution's, not the re-execution's.
func (rt *Runtime) ensureIntent(id string, ev envelope) (*intentRecord, error) {
	rec := rt.newIntent(id, ev)
	err := rt.createIntent(rec)
	if err == nil {
		return rec, nil
	}
	if !errors.Is(err, dynamo.ErrConditionFailed) {
		return nil, err
	}
	rec, ok, err := rt.loadIntent(id)
	if err == nil && !ok {
		err = fmt.Errorf("core: %s: intent %s existed then vanished (GC raced a live instance?)", rt.fn, id)
	}
	return rec, err
}

// loadIntent fetches an existing intent row; ok is false when there is none
// (never registered, or already collected).
func (rt *Runtime) loadIntent(id string) (*intentRecord, bool, error) {
	it, ok, err := rt.store.Get(rt.intentTable, dynamo.HK(dynamo.S(id)))
	if err != nil || !ok {
		return nil, false, err
	}
	return decodeIntent(it), true, nil
}

// markIntentDone finalizes the intent with its return value and drops it
// from the pending index, after which no collector will restart it (§5).
//
// The update is guarded on the row still existing: Update upserts, and an
// unconditional write here would let a straggler instance that outlives its
// GC'd intent resurrect a half-formed row (Done + Ret, no Args, no start
// time). In a single process the synchrony bound T makes that window
// unreachable, but with multiple workers over one backend a paused worker
// can finish arbitrarily late; the condition turns its late completion into
// a no-op (the work was already done and collected).
func (rt *Runtime) markIntentDone(id string, ret Value) error {
	guard := instancePresent
	if FaultUnguardedIntentDone.Load() {
		guard = nil // reintroduce the zombie-upsert bug (see simfault.go)
	}
	err := rt.store.Update(rt.intentTable, dynamo.HK(dynamo.S(id)),
		guard,
		dynamo.Set(dynamo.A(attrDone), dynamo.Bool(true)),
		dynamo.Set(dynamo.A(attrRet), ret),
		dynamo.Remove(dynamo.A(attrPending)),
	)
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return nil // intent already collected: a duplicate, late completion
	}
	if err == nil {
		rt.stats.IntentsCompleted.Add(1)
	}
	return err
}

// MarksIntentDone reports whether an Update of table with updates is an
// intent's completion (markIntentDone's): an update of an intent table that
// sets Done to true. The simulator's late-completion fault delays exactly
// these.
func MarksIntentDone(table string, updates []dynamo.Update) bool {
	if !strings.HasSuffix(table, intentSuffix) {
		return false
	}
	for _, u := range updates {
		if u.Kind == dynamo.UpdateSet && u.Path == dynamo.A(attrDone) && u.Value.BoolVal() {
			return true
		}
	}
	return false
}
