package core

import (
	"fmt"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// The pure-call rule (invoke.go) as the differential oracle cannot see it:
// item 18's crash-point enumeration runs the same program with and without
// crashes, so an unlogged execution that admits an effect, or an unsealed
// read, gives both runs the same wrong answer. Each test here fails on one
// mutation of the rule: an unlogged execution that admits a write, one that
// admits an unsealed read, one whose refusal is not final.

// sealRef fills rt's table "ref" with r = v and seals it: the load phase, with
// no instance running.
func sealRef(t *testing.T, rt *Runtime, v Value) {
	t.Helper()
	ref := daal{rt: rt, table: rt.dataTable("ref")}
	if _, err := ref.loggedWrite("r", "seed#0.000001", setTo(v)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Seal("ref"); err != nil {
		t.Fatal(err)
	}
}

// TestPureCallRunsUnloggedOnceTaught: front calls mid, which calls leaf twice;
// leaf reads a sealed key. The first workflow's calls are logged until a
// callback teaches the hint — mid's second call to leaf is already unlogged —
// and the second workflow's whole tree runs unlogged: its only store ops are
// the entry's intent put and done mark, and neither callee writes an intent.
func TestPureCallRunsUnloggedOnceTaught(t *testing.T) {
	store := dynamo.NewStore()
	f := newFixture(t, withStore(store))
	leaf := f.fn("leaf", func(e *Env, in Value) (Value, error) { return e.Read("ref", "r") }, "ref")
	sealRef(t, leaf, dynamo.S("r1"))
	mid := f.fn("mid", func(e *Env, in Value) (Value, error) {
		a, err := e.SyncInvoke("leaf", in)
		if err != nil {
			return dynamo.Null, err
		}
		b, err := e.SyncInvoke("leaf", in)
		return dynamo.L(a, b), err
	})
	front := f.fn("front", func(e *Env, in Value) (Value, error) { return e.SyncInvoke("mid", in) })

	first := f.mustInvoke("front", dynamo.Null)
	if got := [2]int64{mid.StatsSnapshot().CallsUnlogged, front.StatsSnapshot().CallsUnlogged}; got != [2]int64{1, 0} {
		t.Errorf("first workflow: mid, front made %v unlogged calls, want [1 0]: mid's second call follows a taught hint", got)
	}
	before := store.Metrics().Snapshot()
	second := f.mustInvoke("front", dynamo.Null)
	if d := store.Metrics().Snapshot().Sub(before); d.TotalOps() != 0 {
		t.Errorf("second workflow: %d store ops %v, want 0: every call unlogged, and the entry, effect-free, writes no intent", d.TotalOps(), d.Ops)
	}
	if !second.Equal(first) || second.List()[1].Str() != "r1" {
		t.Errorf("second workflow returned %v, first %v", second, first)
	}
	for _, c := range []struct {
		rt                *Runtime
		unlogged, started int64
	}{{front, 1, 1}, {mid, 3, 1}, {leaf, 0, 0}} {
		if st := c.rt.StatsSnapshot(); st.CallsUnlogged != c.unlogged || st.CallsUnloggedRefused != 0 || st.IntentsStarted != c.started {
			t.Errorf("%s: %d unlogged calls, %d refused, %d intents written; want %d, 0, %d",
				c.rt.fn, st.CallsUnlogged, st.CallsUnloggedRefused, st.IntentsStarted, c.unlogged, c.started)
		}
	}
}

// TestUnloggedRefusalIsFinal: sw reads a sealed key and, on "write", writes
// and ignores the error. Once the hint is taught, front's call through mid
// runs unlogged; sw's write is refused, and a refusal is final: sw's "ok"
// cannot stand in for the write, the whole tree is refused, and front makes
// the logged call, which writes exactly once. The refusal unlearns both
// hints; the next read-only workflow is logged again and teaches them back.
func TestUnloggedRefusalIsFinal(t *testing.T) {
	f := newFixture(t)
	sw := f.fn("sw", func(e *Env, in Value) (Value, error) {
		if _, err := e.Read("ref", "r"); err != nil {
			return dynamo.Null, err
		}
		if in.Str() == "write" {
			_ = e.Write("kv", "k", dynamo.S("written"))
		}
		return dynamo.S("ok"), nil
	}, "ref", "kv")
	sealRef(t, sw, dynamo.S("r1"))
	mid := f.fn("mid", func(e *Env, in Value) (Value, error) { return e.SyncInvoke("sw", in) })
	front := f.fn("front", func(e *Env, in Value) (Value, error) { return e.SyncInvoke("mid", in) })

	f.mustInvoke("front", dynamo.S("ro")) // teaches mid's hint of sw, then front's of mid
	if out := f.mustInvoke("front", dynamo.S("write")); out.Str() != "ok" {
		t.Fatalf("front returned %v", out)
	}
	if got := f.readData("sw", "kv", "k"); got.Str() != "written" {
		t.Errorf("kv/k = %v after the refused unlogged call, want the logged fallback's write", got)
	}
	if got := [2]int64{front.StatsSnapshot().CallsUnloggedRefused, mid.StatsSnapshot().CallsUnloggedRefused}; got != [2]int64{1, 1} {
		t.Errorf("refused unlogged calls of front, mid = %v, want [1 1]: the tree is refused whole", got)
	}
	if sw.stats.IntentsStarted.Load() != 1 {
		t.Errorf("sw wrote %d intents, want 1: the logged fallback's", sw.stats.IntentsStarted.Load())
	}
	f.mustInvoke("front", dynamo.S("ro"))
	f.mustInvoke("front", dynamo.S("ro"))
	if got := [2]int64{front.StatsSnapshot().CallsUnlogged, mid.StatsSnapshot().CallsUnlogged}; got != [2]int64{1, 1} {
		t.Errorf("unlogged calls of front, mid = %v, want [1 1]: the hints were unlearned, then taught again", got)
	}
}

// claimSlots is a callee body that reads a sealed key and, on "claim", takes
// the first free slot of its table by CondWrite: each execution that runs the
// claim takes one more slot, so the number taken counts executions.
func claimSlots(e *Env, in Value) (Value, error) {
	if _, err := e.Read("ref", "r"); err != nil || in.Str() != "claim" {
		return dynamo.S("ro"), err
	}
	for i := 1; i <= 4; i++ {
		slot := fmt.Sprintf("s%d", i)
		ok, err := e.CondWrite("slots", slot, dynamo.S("taken"), dynamo.Eq(dynamo.A(attrValue), dynamo.Null))
		if err != nil || ok {
			return dynamo.S(slot), err
		}
	}
	return dynamo.Null, fmt.Errorf("no free slot")
}

// TestUnloggedCallOfAWriterAppliesItsEffectOnce: a callee hinted pure takes a
// slot, and its caller dies after the call and re-executes. The unlogged
// execution is refused at the CondWrite, the logged fallback takes one slot
// and logs its result, and the re-execution replays that result: one slot.
// With FaultUnloggedAdmitsWrite on, the unlogged execution takes the slot and
// the re-execution, unlogged again, takes a second.
func TestUnloggedCallOfAWriterAppliesItsEffectOnce(t *testing.T) {
	run := func(t *testing.T) (taken int) {
		f := newFixture(t)
		claimer := f.fn("claimer", claimSlots, "ref", "slots")
		sealRef(t, claimer, dynamo.S("r1"))
		f.fn("front", func(e *Env, in Value) (Value, error) {
			out, err := e.SyncInvoke("claimer", in)
			if err != nil {
				return dynamo.Null, err
			}
			return out, e.Write("own", "k", out)
		}, "own")
		f.mustInvoke("front", dynamo.S("ro"))
		crash := &platform.CrashOnce{Function: "front", Label: "write:pre:0.000002"}
		f.plat.SetFaults(crash)
		before := f.intentRows("front")
		if _, err := f.invoke("front", dynamo.S("claim")); err == nil || !crash.Fired() {
			t.Fatalf("front must die after its call: %v", err)
		}
		f.plat.SetFaults(nil)
		if f.intentRows("front") == before {
			// The kill came before the entry's first effect boundary, so it
			// left no intent to recover, and the client retries.
			f.mustInvoke("front", dynamo.S("claim"))
		}
		f.recoverAll()
		for i := 1; i <= 4; i++ {
			if !f.readData("claimer", "slots", fmt.Sprintf("s%d", i)).IsNull() {
				taken++
			}
		}
		return taken
	}
	if n := run(t); n != 1 {
		t.Errorf("%d slots taken, want 1: the claim ran once, logged", n)
	}
	FaultUnloggedAdmitsWrite.Store(true)
	defer FaultUnloggedAdmitsWrite.Store(false)
	if n := run(t); n != 2 {
		t.Errorf("with the unlogged write admitted: %d slots taken, want 2, or the test sees nothing", n)
	}
}

// TestUnloggedCallerSeesOneValueOfAnUnsealedRead: front writes what its call
// returned to a and then to b, and dies between the two; the callee's value
// is an unsealed key, which changes before front's re-execution. The unlogged
// execution is refused at the unsealed read, the logged fallback logs v1, and
// the re-execution replays it: a = b = v1. With FaultUnloggedAdmitsUnsealedRead
// on, the re-execution runs the call unlogged again and observes v2 — two
// executions, two results (clause 1 (ii)'s anomaly).
func TestUnloggedCallerSeesOneValueOfAnUnsealedRead(t *testing.T) {
	run := func(t *testing.T) (a, b Value) {
		f := newFixture(t)
		peek := f.fn("peek", func(e *Env, in Value) (Value, error) {
			switch s := in.Str(); {
			case s == "peek":
				if _, err := e.Read("ref", "r"); err != nil {
					return dynamo.Null, err
				}
				return e.Read("live", "x")
			case len(s) > 4 && s[:4] == "set:":
				return dynamo.Null, e.Write("live", "x", dynamo.S(s[4:]))
			}
			return e.Read("ref", "r")
		}, "ref", "live")
		sealRef(t, peek, dynamo.S("r1"))
		f.fn("front", func(e *Env, in Value) (Value, error) {
			v, err := e.SyncInvoke("peek", in)
			if err != nil {
				return dynamo.Null, err
			}
			if err := e.Write("out", "a", v); err != nil {
				return dynamo.Null, err
			}
			return v, e.Write("out", "b", v)
		}, "out")
		f.mustInvoke("peek", dynamo.S("set:v1"))
		f.mustInvoke("front", dynamo.S("ro"))
		crash := &platform.CrashOnce{Function: "front", Label: "write:pre:0.000003"}
		f.plat.SetFaults(crash)
		if _, err := f.invoke("front", dynamo.S("peek")); err == nil || !crash.Fired() {
			t.Fatalf("front must die between its writes: %v", err)
		}
		f.plat.SetFaults(nil)
		f.mustInvoke("peek", dynamo.S("set:v2"))
		f.recoverAll()
		return f.readData("front", "out", "a"), f.readData("front", "out", "b")
	}
	if a, b := run(t); a.Str() != "v1" || b.Str() != "v1" {
		t.Errorf("a = %v, b = %v; want v1 twice: one execution's value", a, b)
	}
	FaultUnloggedAdmitsUnsealedRead.Store(true)
	defer FaultUnloggedAdmitsUnsealedRead.Store(false)
	if a, b := run(t); a.Equal(b) {
		t.Errorf("with the unsealed read admitted: a = b = %v, want two values, or the test sees nothing", a)
	}
}

// TestInstanceIDIsNeverRunUnlogged: a callee that returns its instance id
// after a sealed read is impure — an unlogged execution's id is fresh every
// time — so it never claims purity and every call stays logged. A hint forced
// on the caller is refused and unlearned, and the logged fallback's id is
// the reply.
func TestInstanceIDIsNeverRunUnlogged(t *testing.T) {
	f := newFixture(t)
	who := f.fn("who", func(e *Env, in Value) (Value, error) {
		if _, err := e.Read("ref", "r"); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S(e.InstanceID()), nil
	}, "ref")
	sealRef(t, who, dynamo.S("r1"))
	front := f.fn("front", func(e *Env, in Value) (Value, error) { return e.SyncInvoke("who", in) })
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		seen[f.mustInvoke("front", dynamo.Null).Str()] = true
	}
	if st := front.StatsSnapshot(); st.CallsUnlogged != 0 || st.CallsUnloggedRefused != 0 || len(seen) != 3 {
		t.Errorf("%d unlogged calls, %d refused, %d distinct ids; want 0, 0, 3", st.CallsUnlogged, st.CallsUnloggedRefused, len(seen))
	}
	front.pure.add("", "who")
	id := f.mustInvoke("front", dynamo.Null).Str()
	if st := front.StatsSnapshot(); st.CallsUnlogged != 0 || st.CallsUnloggedRefused != 1 || front.pure.has("", "who") {
		t.Errorf("a forced hint: %d unlogged calls, %d refused, hint kept %v; want 0, 1, false",
			st.CallsUnlogged, st.CallsUnloggedRefused, front.pure.has("", "who"))
	}
	if seen[id] || id == "" {
		t.Errorf("the reply %q, want a fresh id", id)
	}
}

// TestPureCallFromParallelBranches: Parallel branches of one execution share
// its purity bits, and concurrent workflows share the caller's hint; run it
// under -race. Each branch calls a pure leaf, while the hint is cold and
// after it is warm, and the branch-made execution still claims purity: once
// taught, the whole tree runs unlogged.
func TestPureCallFromParallelBranches(t *testing.T) {
	const branches, workflows = 4, 8
	f := newFixture(t)
	leaf := f.fn("leaf", func(e *Env, in Value) (Value, error) { return e.Read("ref", "r") }, "ref")
	sealRef(t, leaf, dynamo.NInt(5))
	f.fn("mid", func(e *Env, in Value) (Value, error) {
		outs := make([]int64, branches)
		fns := make([]func(*Env) error, branches)
		for b := range fns {
			fns[b] = func(e *Env) error {
				v, err := e.SyncInvoke("leaf", dynamo.Null)
				outs[b] = v.Int()
				return err
			}
		}
		err := e.Parallel(fns...)
		var sum int64
		for _, o := range outs {
			sum += o
		}
		return dynamo.NInt(sum), err
	})
	front := f.fn("front", func(e *Env, in Value) (Value, error) { return e.SyncInvoke("mid", in) })
	run := func() {
		replies := make([]chan reply, workflows)
		for i := range replies {
			replies[i] = goInvoke(func() (Value, error) { return f.invoke("front", dynamo.Null) })
		}
		for _, ch := range replies {
			if r := <-ch; r.err != nil || r.out.Int() != 5*branches {
				t.Errorf("front = %v, %v; want %d", r.out, r.err, 5*branches)
			}
		}
	}
	run()
	if !front.pure.has("", "mid") {
		t.Fatal("no workflow taught front that mid is pure")
	}
	before := front.StatsSnapshot().CallsUnlogged
	run()
	if n := front.StatsSnapshot().CallsUnlogged - before; n != workflows {
		t.Errorf("%d of %d warm workflows called mid unlogged", n, workflows)
	}
}
