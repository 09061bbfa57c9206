package core

import (
	"errors"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// cdcBuild registers the canonical CDC pair: "w" writes doc rows in its
// "state" table, and "audit" — subscribed to that table — counts the change
// events it sees per key (and checks the payload shape) in its own "log"
// table. Both sides use the Beldi API, so the fire count in "log" is itself
// exactly-once state.
func cdcBuild(f *fixture) {
	f.fn("audit", func(e *Env, in Value) (Value, error) {
		tbl, _ := in.MapGet(ChangeEvTable)
		fn, _ := in.MapGet(ChangeEvFn)
		key, _ := in.MapGet(ChangeEvKey)
		if tbl.Str() != "state" || fn.Str() != "w" || key.Str() == "" {
			return dynamo.Null, errors.New("malformed change event")
		}
		n, err := e.Read("log", key.Str())
		if err != nil {
			return dynamo.Null, err
		}
		if err := e.Write("log", key.Str(), dynamo.NInt(n.Int()+1)); err != nil {
			return dynamo.Null, err
		}
		return dynamo.Null, nil
	}, "log")
	f.fn("w", func(e *Env, in Value) (Value, error) {
		if err := e.Write("state", "doc", dynamo.S("v1")); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("done"), nil
	}, "state")
	f.rts["w"].RegisterChangeHandler("state", "audit")
}

func TestChangeHandlerFiresOncePerCommittedWrite(t *testing.T) {
	f := newFixture(t)
	cdcBuild(f)
	// Drain between the writes: the audit handler counts with an unlocked
	// read-then-write, so two handler instances in flight at once could lose
	// an update — a race in this fixture, not in change delivery.
	f.mustInvoke("w", dynamo.Null)
	f.plat.Drain()
	f.mustInvoke("w", dynamo.Null)
	f.plat.Drain()
	if got := f.readData("audit", "log", "doc"); got.Int() != 2 {
		t.Fatalf("handler fire count = %v, want 2 (one per committed write)", got)
	}
	if n := f.rts["w"].Stats().ChangeEvents.Load(); n != 2 {
		t.Fatalf("ChangeEvents = %d, want 2", n)
	}
}

func TestChangeHandlerUntakenCondWriteEmitsNothing(t *testing.T) {
	f := newFixture(t)
	f.fn("audit", func(e *Env, in Value) (Value, error) {
		n, err := e.Read("log", "fires")
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.Null, e.Write("log", "fires", dynamo.NInt(n.Int()+1))
	}, "log")
	f.fn("w", func(e *Env, in Value) (Value, error) {
		// First claim takes; the repeat does not (value is no longer Null).
		taken, err := e.CondWrite("state", "slot", dynamo.S("claimed"),
			dynamo.Or(dynamo.NotExists(dynamo.A(attrValue)), dynamo.Eq(dynamo.A(attrValue), dynamo.Null)))
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.Bool(taken), nil
	}, "state")
	f.rts["w"].RegisterChangeHandler("state", "audit")

	if out := f.mustInvoke("w", dynamo.Null); !out.BoolVal() {
		t.Fatal("first CondWrite not taken")
	}
	if out := f.mustInvoke("w", dynamo.Null); out.BoolVal() {
		t.Fatal("second CondWrite unexpectedly taken")
	}
	f.plat.Drain()
	if got := f.readData("audit", "log", "fires"); got.Int() != 1 {
		t.Fatalf("handler fired %v times, want 1 (untaken CondWrite must not emit)", got)
	}
}

func TestChangeHandlerBaselineEmitsNothing(t *testing.T) {
	f := newFixture(t, withMode(ModeBaseline))
	f.fn("audit", func(e *Env, in Value) (Value, error) {
		return dynamo.Null, e.Write("log", "fires", dynamo.S("fired"))
	}, "log")
	f.fn("w", func(e *Env, in Value) (Value, error) {
		return dynamo.Null, e.Write("state", "doc", dynamo.S("v"))
	}, "state")
	f.rts["w"].RegisterChangeHandler("state", "audit")
	f.mustInvoke("w", dynamo.Null)
	f.plat.Drain()
	if got := f.readData("audit", "log", "fires"); !got.IsNull() {
		t.Fatalf("baseline write fired a change handler: %v", got)
	}
}

// TestChangeHandlerExactlyOnceCrashSweep crashes at every operation boundary
// of both the writing SSF and the change handler: after recovery the write
// landed once and the handler observed exactly one change event — the CDC
// fire is deduplicated through the invoke log like any §4.5 async edge.
func TestChangeHandlerExactlyOnceCrashSweep(t *testing.T) {
	workload := func(f *fixture) error {
		_, err := f.invoke("w", dynamo.Null)
		if err != nil && !errors.Is(err, platform.ErrCrashed) {
			return err
		}
		return nil
	}
	check := func(f *fixture, label string) {
		if got := f.readData("w", "state", "doc"); got.Str() != "v1" {
			t.Errorf("%s: doc = %v, want v1", label, got)
		}
		if got := f.readData("audit", "log", "doc"); got.Int() != 1 {
			t.Errorf("%s: handler fire count = %v, want exactly 1", label, got)
		}
	}
	crashSweep(t, []string{"w", "audit"}, cdcBuild, workload, check)
}
