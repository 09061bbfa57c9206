package core

import "sync/atomic"

// Protocol fault hooks: switches that deliberately reintroduce historical
// protocol bugs so the deterministic simulator (internal/sim) and the
// crash-point enumeration (beldi/crashpoints_test.go) can prove their checks
// catch them. They exist for meta-tests only — a test enables a hook, runs
// its check, and asserts the check fails. Production and ordinary test code
// must never set them.

// FaultUnguardedIntentDone, when true, drops the existence guard on
// markIntentDone, reintroducing the zombie-upsert bug: a straggler instance
// that outlives its GC'd intent resurrects a half-formed intent row (Done +
// Ret, no Args, no start time). Fsck flags such rows, which is how the
// simulator's sweep detects the regression.
var FaultUnguardedIntentDone atomic.Bool

// FaultDAALSkipsLoggedCheck, when true, makes a DAAL write skip its
// logged-step check (§4.3's case A): a re-executed step applies its mutation
// again instead of returning the outcome its write-log entry records.
var FaultDAALSkipsLoggedCheck atomic.Bool

// FaultHeadFirstSkipsLoggedCheck, when true, drops "no entry for this step"
// from a DAAL head-first attempt's condition: a zombie's fresh step whose
// relaunch already logged it applies its mutation again on a one-row item.
// A crash-point replay is never fresh, so only the relaunch enumeration and
// a zombie test can see it.
var FaultHeadFirstSkipsLoggedCheck atomic.Bool

// FaultReinvokeIgnoresCalleeID, when true, makes a re-executed SyncInvoke
// ignore the callee id its invoke-log row holds, and with it the result
// logged for that callee, and launch the callee as new under a fresh id: a
// second execution of the callee, with effects of its own.
var FaultReinvokeIgnoresCalleeID atomic.Bool

// FaultDoneBeforeFlush, when true, writes the done mark at every effect
// boundary before the read-log flush, so an intent is done before its last
// effect: a crash past the mark leaves work the collector never resumes.
var FaultDoneBeforeFlush atomic.Bool

// FaultRelaunchLeavesRowOpen, when true, lets an effect-free callback fill a
// caller's invoke-log row that a relaunch has closed: the lazy intent's
// fifth rule is gone, and the caller can hold the result of one execution
// beside the effects of another.
var FaultRelaunchLeavesRowOpen atomic.Bool

// FaultLazyEntryAdmitsRelaunch, when true, defers the intent row of every
// launch of a workflow entry, not only its first: a collector relaunch (or
// any launch that carries the instance id) runs with a read log it takes to
// be empty, and its deferred put is refused by the row its first launch
// wrote, so it stops at its first effect boundary and never finishes.
var FaultLazyEntryAdmitsRelaunch atomic.Bool

// FaultAdoptIgnoresDiffer, when true, makes a refused read-log flush adopt a
// logged read whose value differs from the one this execution fetched,
// instead of stopping the execution as superseded: it goes on acting on a
// value the log does not hold.
var FaultAdoptIgnoresDiffer atomic.Bool

// FaultUnloggedAdmitsWrite, when true, lets an unlogged execution make a
// Write or CondWrite, and pass the boundary that would refuse it: a callee
// hinted pure applies an effect that no log records, once per execution of
// its caller.
var FaultUnloggedAdmitsWrite atomic.Bool

// FaultUnloggedAdmitsUnsealedRead, when true, lets an unlogged execution
// read an unsealed table: a re-execution of its caller can observe a
// different value than the execution that acted on it.
var FaultUnloggedAdmitsUnsealedRead atomic.Bool

// FaultStallAppend, when set, is called by appendRow between its put of the
// new row and its link from the full row: a writer stalled there for as
// long as the hook runs. A hook that runs GC passes past T reproduces a row
// collected before its link landed, which the write walk must repair.
var FaultStallAppend atomic.Pointer[func()]
