package core_test

import (
	"strings"
	"testing"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/uuid"
)

// TestDurableSpansRoundTrip reconstructs a trace from nothing but the
// durable state a real workflow left behind — the beldi-trace -wal path: no
// hub attached, just the intent and invoke-log tables.
func TestDurableSpansRoundTrip(t *testing.T) {
	store := dynamo.NewStore()
	plat := platform.New(platform.Options{ConcurrencyLimit: 64, IDs: &uuid.Seq{Prefix: "req"}})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat})
	d.Function("charge", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		v, err := e.Read("ledger", "total")
		if err != nil {
			return beldi.Null, err
		}
		next := beldi.Int(v.Int() + in.Int())
		return next, e.Write("ledger", "total", next)
	}, "ledger")
	d.Function("front", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return e.SyncInvoke("charge", beldi.Int(42))
	}, "orders")
	if _, err := d.Invoke("front", beldi.Null); err != nil {
		t.Fatal(err)
	}
	d.Stop()

	spans, err := core.DurableSpans(store)
	if err != nil {
		t.Fatal(err)
	}
	roots := telemetry.Roots(spans)
	if len(roots) != 1 {
		t.Fatalf("roots = %v, want exactly the front request", roots)
	}
	tr := telemetry.Assemble(spans, roots[0])
	intents := map[string]bool{}
	calls := 0
	for _, s := range tr.Spans {
		intents[s.Intent] = true
		if s.Err == "pending" {
			t.Errorf("completed workflow reconstructed as pending: %+v", s)
		}
		if s.Kind == telemetry.KindCall {
			calls++
			if s.Child == "" {
				t.Errorf("call span lost its callee edge: %+v", s)
			}
			if s.Name != "charge" {
				t.Errorf("call span callee = %q, want charge", s.Name)
			}
		}
	}
	if len(intents) != 2 {
		t.Errorf("trace covers %d intents, want 2 (front + charge): %v", len(intents), intents)
	}
	if calls != 1 {
		t.Errorf("reconstructed %d call spans, want 1", calls)
	}
	var b strings.Builder
	tr.Render(&b)
	if out := b.String(); strings.Contains(out, "orphan intent") {
		t.Errorf("durable trace rendered orphans:\n%s", out)
	}
}
