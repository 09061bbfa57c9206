package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

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
	args       envelope
	ret        Value
	startTime  int64
	lastLaunch int64
	launches   int64 // launches so far, the in-process fire included; 0 until a claim counts one
	finishTime int64
	// The flags sit together, so the record keeps its size class.
	done      bool
	async     bool
	hasFinish bool
	// fresh is true when this execution is the intent's first, not a replayed
	// re-execution, so no log row of the instance can pre-date it: ensureIntent
	// created the row in this call, the launch is a deferred first one, or it
	// is an async first run younger than ICMinAge (handleAsyncRun).
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

// newIntent is the record of an instance first launched at at, as
// createIntent stores it. Its start time — the wait-die priority — is fixed
// here, so a deferred intent hands its transactions the very value its row
// will hold, and an async first run the value its registration wrote.
func (rt *Runtime) newIntent(id string, ev envelope, at int64) *intentRecord {
	return &intentRecord{id: id, args: ev, async: ev.Async, startTime: at, lastLaunch: at, fresh: true}
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

// A durable timer is a scheduled intent: a schedule's registration is a
// pending async intent row of the function it runs, keyed by the schedule id
// (scheduleKey) and carrying its generation (attrSchedule, a nonce minted at
// registration: the "not yet launched" marker) and, for a periodic schedule,
// its period, with a LastLaunch of due − ICMinAge. The row itself never
// runs. No collector pass claims it before it is due (launchedRecently), and
// the pass that finds it due fires it (fireSchedule): one transaction that
// advances the row a period (or deletes a one-shot's) under the ordinary
// fenced claim and puts the due occurrence's intent row, launched once by
// this claim. The occurrence id is deterministic per (generation, the
// LastLaunch the claim read), and its put is guarded on that id's absence,
// so each occurrence is put exactly once; later launches of it are the
// ordinary relaunches of an async intent. Keyed by the schedule id, a
// registration is first-write-wins: the instanceAbsent guard on its put
// deduplicates racing Schedules.

// scheduleKey is the instance id of schedule id's registration row.
func scheduleKey(id string) string { return "schedule-" + id }

// Schedule registers a run of this SSF with input after delay, repeating
// every period when period > 0. A schedule whose registration is live —
// periodic, or a one-shot not fired yet — is left as it is, so a retried or
// racing Schedule of one id registers it once. A registration is new, with
// a fresh generation, after its one-shot fired or it was canceled.
func (rt *Runtime) Schedule(id string, input Value, delay, period time.Duration) error {
	if id == "" || delay < 0 || period < 0 {
		return fmt.Errorf("core: %s: Schedule: want an id and no negative delay or period", rt.fn)
	}
	run := envelope{Kind: kindAsyncRun, Input: input, Async: true}
	at := rt.now() + delay.Microseconds() - rt.cfg.ICMinAge.Microseconds()
	it := rt.newIntent(scheduleKey(id), run, at).item()
	it[attrSchedule] = dynamo.S(rt.ids.NewString())
	if period > 0 {
		it[attrPeriod] = dynamo.NInt(period.Microseconds())
	}
	err := rt.store.Put(rt.intentTable, it, instanceAbsent)
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return nil // already registered
	}
	return err
}

// CancelSchedule deletes schedule id's registration, so none of its
// occurrences launches from now on; an unknown id is a no-op, and an
// occurrence already fired is not recalled. A fire racing the delete either
// commits first (its occurrence runs, and the delete removes what it left)
// or fails on the missing row.
func (rt *Runtime) CancelSchedule(id string) error {
	return rt.store.Delete(rt.intentTable, dynamo.HK(dynamo.S(scheduleKey(id))), nil)
}

// fireSchedule claims registration it, read as rec and due at now, and
// launches its due occurrence, then every later occurrence already due, up
// to ICPageLimit of them when that is set. Each claim is one transaction of
// fence, the registration's advance by its period (a one-shot's delete),
// guarded on the LastLaunch and generation it observed, and the
// occurrence's put. The occurrence row is the intent of a first launch at
// now, which the launch's First and Launched repeat: no relaunch of it can
// be claimed within ICMinAge, and nothing has logged under its id. nextDue
// is when the registration's next occurrence is due, in µs, 0 when there is
// none or another collector's claim won.
func (rt *Runtime) fireSchedule(it dynamo.Item, rec *intentRecord, now int64, fence []dynamo.TxOp) (nextDue int64, _ error) {
	gen, period := it[attrSchedule], it[attrPeriod].Int()
	for n := 1; ; n++ {
		claim := rt.claimOp(rec.id, rec.lastLaunch)
		claim.Cond = dynamo.And(claim.Cond, dynamo.Eq(dynamo.A(attrSchedule), gen))
		if period > 0 {
			claim.Updates = []dynamo.Update{dynamo.Set(dynamo.A(attrLastLaunch), dynamo.NInt(rec.lastLaunch+period))}
		} else {
			claim.Delete = true
		}
		id := fmt.Sprintf("timer-%s-%s-%x", strings.TrimPrefix(rec.id, scheduleKey("")), gen.Str(), rec.lastLaunch)
		run := rec.args
		run.InstanceID = id
		occ := dynamo.TxOp{Table: rt.intentTable, Key: dynamo.HK(dynamo.S(id)), Put: rt.newIntent(id, run, now).item(), Cond: instanceAbsent}
		claimed, err := rt.touchLaunchFenced(claim, fence, occ)
		if err != nil || !claimed {
			return 0, err
		}
		rt.stats.IntentsStarted.Add(1)
		run.First, run.Launched = true, now
		if err := rt.plat.InvokeAsyncInternal(rt.fn, run.encode()); err != nil {
			return 0, err
		}
		if period == 0 {
			return 0, nil
		}
		rec.lastLaunch += period
		if rt.launchedRecently(rec.lastLaunch, now) || n == rt.cfg.ICPageLimit {
			return rec.lastLaunch + rt.cfg.ICMinAge.Microseconds(), nil
		}
	}
}

// ensureIntent makes the instance's intent row exist, creating it on first
// execution and reading it back on re-execution (the first operation of
// every Beldi SSF but a first-launched callee, §3.3). The returned record
// carries the authoritative start time — the wait-die priority — which is
// the *original* execution's, not the re-execution's. A created row starts
// at at.
func (rt *Runtime) ensureIntent(id string, ev envelope, at int64) (*intentRecord, error) {
	rec := rt.newIntent(id, ev, at)
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
