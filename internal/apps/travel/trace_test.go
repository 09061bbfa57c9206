package travel

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/platform"
	"repro/internal/storage/storagetest"
	"repro/internal/telemetry"
	"repro/internal/uuid"
)

// TestTraceContinuityAcrossCrash is the telemetry layer's core promise: a
// reservation driver killed mid-workflow and finished by the intent
// collector must read as ONE trace — the crashed attempt, the restarted
// attempt, and every replayed step all under the same root — with no orphan
// spans. Runs against both backends via BELDI_BACKEND.
func TestTraceContinuityAcrossCrash(t *testing.T) {
	store := storagetest.Open(t)
	tel := beldi.NewTelemetry()
	plan := &platform.CrashOnce{Function: FnFrontend, Label: "body:done"}
	plat := platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}, Faults: plan})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat, Mode: beldi.ModeBeldi,
		Config:    beldi.Config{RowCap: 8, T: 50 * time.Millisecond, LockRetryMax: 300},
		Telemetry: tel,
	})
	app := Build(d)
	app.Capacity = 50
	if err := app.Seed(); err != nil {
		t.Fatal(err)
	}
	// Seeding runs workflows of its own; start the trace window clean so
	// the buffer holds exactly the reservation under test.
	tel.Tracer.Reset()

	_, err := d.Invoke(FnFrontend, beldi.Map(map[string]beldi.Value{
		"op":     beldi.Str("reserve"),
		"hotel":  beldi.Str(hotelID(3)),
		"flight": beldi.Str(flightID(4)),
	}))
	if err == nil {
		t.Fatal("frontend survived the injected crash")
	}
	if !errors.Is(err, platform.ErrCrashed) {
		t.Fatalf("unexpected error: %v", err)
	}
	if !plan.Fired() {
		t.Fatal("fault never fired")
	}
	plat.Drain()

	// The collector finishes the workflow; wait for a clean root attempt.
	recovered := func() bool {
		for _, s := range tel.Tracer.Spans() {
			if s.Kind == telemetry.KindExec && s.Fn == FnFrontend && s.ParentIntent == "" && s.Err == "" {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for !recovered() {
		if time.Now().After(deadline) {
			t.Fatal("collector never finished the crashed workflow")
		}
		time.Sleep(2 * time.Millisecond)
		if err := d.RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
		plat.Drain()
	}
	d.Stop()

	spans := tel.Tracer.Spans()
	roots := telemetry.Roots(spans)
	if len(roots) != 1 {
		t.Fatalf("roots = %v, want exactly one — the pre-crash and recovered executions split", roots)
	}
	tr := telemetry.Assemble(spans, roots[0])
	if len(tr.Spans) != len(spans) {
		t.Fatalf("trace covers %d of %d spans — orphans outside the root's causal closure", len(tr.Spans), len(spans))
	}

	var crashed, clean, restartAttempts, replaySteps int
	for _, s := range tr.Spans {
		if s.Kind == telemetry.KindExec && s.Intent == tr.Root {
			switch {
			case s.Err == "crashed":
				crashed++
			case s.Err == "":
				clean++
			}
			if s.Replay {
				restartAttempts++
			}
		}
		if s.Kind != telemetry.KindExec && s.Replay {
			replaySteps++
		}
	}
	if crashed == 0 {
		t.Error("pre-crash attempt left no crashed exec span")
	}
	if clean == 0 {
		t.Error("recovered attempt left no clean exec span")
	}
	if restartAttempts == 0 {
		t.Error("no exec attempt is marked as a collector restart")
	}
	if replaySteps == 0 {
		t.Error("recovered execution marked no step as replayed — replays are indistinguishable from fresh work")
	}

	var b strings.Builder
	tr.Render(&b)
	out := b.String()
	if strings.Contains(out, "orphan intent") {
		t.Errorf("rendered trace has orphans:\n%s", out)
	}
	if !strings.Contains(out, "(restart)") || !strings.Contains(out, "(replay)") {
		t.Errorf("rendered trace does not distinguish restart/replay:\n%s", out)
	}
}

// TestUnloggedSearchIsVisible: on a sealed deployment the first search is
// logged and teaches the hints, and the second runs its whole tree
// unlogged. A trace names each of that tree's exec spans "unlogged", and
// the registry counts the calls under core.<fn>.calls_unlogged.
func TestUnloggedSearchIsVisible(t *testing.T) {
	tel := beldi.NewTelemetry()
	plat := platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: storagetest.Open(t), Platform: plat, Telemetry: tel})
	if err := Build(d).Seed(); err != nil {
		t.Fatal(err)
	}
	search := beldi.Map(map[string]beldi.Value{"op": beldi.Str("search"), "lat": beldi.Num(1), "lon": beldi.Num(2)})
	first, err := d.Invoke(FnFrontend, search)
	if err != nil {
		t.Fatal(err)
	}
	tel.Tracer.Reset()
	second, err := d.Invoke(FnFrontend, search)
	if err != nil || !second.Equal(first) {
		t.Fatalf("second search = %v, %v; want the first's %v", second, err, first)
	}
	unlogged := map[string]bool{}
	for _, s := range tel.Tracer.Spans() {
		if s.Kind == telemetry.KindExec && s.Name == "unlogged" {
			unlogged[s.Fn] = true
		}
	}
	if !unlogged[FnSearch] || !unlogged[FnGeo] || !unlogged[FnRate] || len(unlogged) != 3 {
		t.Errorf("unlogged exec spans of %v, want search, geo and rate", unlogged)
	}
	counters := tel.Registry.Snapshot().Counters
	for fn, want := range map[string]int64{FnFrontend: 1, FnSearch: 2} {
		if got := counters["core."+fn+".calls_unlogged"]; got != want {
			t.Errorf("core.%s.calls_unlogged = %v, want %v", fn, got, want)
		}
	}
}
