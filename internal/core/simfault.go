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

// FaultReinvokeIgnoresCalleeID, when true, makes a re-executed SyncInvoke
// ignore the callee id its invoke-log row holds, and with it the result
// logged for that callee, and launch the callee as new under a fresh id: a
// second execution of the callee, with effects of its own.
var FaultReinvokeIgnoresCalleeID atomic.Bool

// FaultDoneBeforeFlush, when true, writes the done mark at every effect
// boundary before the read-log flush, so an intent is done before its last
// effect: a crash past the mark leaves work the collector never resumes.
var FaultDoneBeforeFlush atomic.Bool
