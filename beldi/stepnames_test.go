package beldi_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/beldi"
	"repro/internal/apps/travel"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// A step builds its crash-point label only when a fault plan is installed and
// its span name only when a telemetry hub is attached. These goldens pin both
// byte for byte over a fixed list of travel requests, one chain workflow, one
// promise fan-out and one claim:
// every label a plan sees, in order with its op index, and every span a trace
// records. They were written by the commit before the labels and names became
// lazy; a diff means a plan or a trace now sees something else. Regenerate
// only for a deliberate change: go test ./beldi -run StepNames -update.

var updateGoldens = flag.Bool("update", false, "rewrite the step-name goldens in testdata/")

// goldenRequests is the fixed request list: every travel operation, a failed
// login, and two bookings of the same hotel.
func goldenRequests() []beldi.Value {
	m := func(kv ...string) beldi.Value {
		out := make(map[string]beldi.Value, len(kv)/2)
		for i := 0; i < len(kv); i += 2 {
			out[kv[i]] = beldi.Str(kv[i+1])
		}
		return beldi.Map(out)
	}
	search := func(lat, lon float64) beldi.Value {
		return beldi.Map(map[string]beldi.Value{"op": beldi.Str("search"), "lat": beldi.Num(lat), "lon": beldi.Num(lon)})
	}
	return []beldi.Value{
		search(0.4, 1.7),
		m("op", "recommend", "require", "distance"),
		m("op", "login", "user", "user-007", "password", "pw-007"),
		m("op", "login", "user", "user-008", "password", "wrong"),
		m("op", "reserve", "hotel", "hotel-042", "flight", "flight-017"),
		search(2.9, 0.1),
		m("op", "reserve", "hotel", "hotel-042", "flight", "flight-018"),
	}
}

const goldenChainFn, goldenChainWrites = "chain", 8

// The fan-out: goldenFanFn counts its runs in a key it reads and rewrites,
// async-invokes goldenLeafFn goldenFanWidth times with promises, and returns
// the results' sum plus 100 times the count it read; each leaf writes its
// input.
const goldenFanFn, goldenLeafFn, goldenFanWidth = "fan", "leaf", 3

// The claim: goldenClaimFn calls goldenOnceFn, which reads a slot and, only
// if it is empty, writes its input there: "won" then, "taken" without an
// effect when the slot is already held. Two executions of one call can take
// different paths, one of them effect-free.
const goldenClaimFn, goldenOnceFn = "claim", "once"

// runGoldenWorkflows seeds a travel deployment, calls arm, then runs the
// fixed requests, one chain workflow of eight logged writes, one promise
// fan-out and one claim. It returns the deployment's store.
func runGoldenWorkflows(t *testing.T, tel *beldi.Telemetry, arm func(*platform.Platform)) *dynamo.Store {
	t.Helper()
	d, plat, store := goldenDeployment(t, tel, beldi.Config{}, nil)
	arm(plat)
	for i, c := range goldenCalls() {
		if _, err := d.Invoke(c.fn, c.in); err != nil {
			t.Fatalf("call %d (%s): %v", i, c.fn, err)
		}
	}
	return store
}

// goldenDeployment builds and seeds the golden run's deployment: travel
// plus the chain, fan-out and claim functions, under cfg and clk (nil for
// the real clock), with sequential ids. The platform runs every
// asynchronous fire inline, on the firing goroutine, so the run is
// sequential and its labels come in program order.
func goldenDeployment(t *testing.T, tel *beldi.Telemetry, cfg beldi.Config, clk clock.Clock) (*beldi.Deployment, *platform.Platform, *dynamo.Store) {
	t.Helper()
	plat := platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"},
		AsyncDispatch: func(run func()) { run() }})
	store := dynamo.NewStore()
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat, IDs: &uuid.Seq{Prefix: "id"}, Telemetry: tel, Config: cfg, Clock: clk,
	})
	app := travel.Build(d)
	d.Function(goldenChainFn, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		for i := 0; i < goldenChainWrites; i++ {
			if err := e.Write("state", fmt.Sprintf("k%04d", i*37), beldi.Int(int64(i))); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Int(goldenChainWrites), nil
	}, "state")
	d.Function(goldenFanFn, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		runs, err := e.Read("runs", "n")
		if err != nil {
			return beldi.Null, err
		}
		if err := e.Write("runs", "n", beldi.Int(runs.Int()+1)); err != nil {
			return beldi.Null, err
		}
		ps := make([]*beldi.Promise, goldenFanWidth)
		for i := range ps {
			p, err := e.AsyncInvokePromise(goldenLeafFn, beldi.Int(int64(i)))
			if err != nil {
				return beldi.Null, err
			}
			ps[i] = p
		}
		vs, err := beldi.AwaitAll(e, ps...)
		if err != nil {
			return beldi.Null, err
		}
		sum := 100 * runs.Int()
		for _, v := range vs {
			sum += v.Int()
		}
		return beldi.Int(sum), nil
	}, "runs")
	d.Function(goldenLeafFn, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		if err := e.Write("tally", fmt.Sprintf("k%d", in.Int()), in); err != nil {
			return beldi.Null, err
		}
		return beldi.Int(10 * in.Int()), nil
	}, "tally")
	d.Function(goldenClaimFn, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return e.SyncInvoke(goldenOnceFn, beldi.Str(goldenClaimFn))
	})
	d.Function(goldenOnceFn, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		held, err := e.Read("slot", "owner")
		if err != nil || !held.IsNull() {
			return beldi.Str("taken"), err
		}
		return beldi.Str("won"), e.Write("slot", "owner", in)
	}, "slot")
	if err := app.Seed(); err != nil {
		t.Fatal(err)
	}
	if tel != nil {
		tel.Tracer.Reset()
	}
	return d, plat, store
}

// goldenCall is one client invocation of the golden run.
type goldenCall struct {
	fn string
	in beldi.Value
}

// goldenCalls lists the golden run in order: the travel requests, the chain
// workflow, then the fan-out.
func goldenCalls() []goldenCall {
	var calls []goldenCall
	for _, req := range goldenRequests() {
		calls = append(calls, goldenCall{travel.FnFrontend, req})
	}
	return append(calls, goldenCall{goldenChainFn, beldi.Null}, goldenCall{goldenFanFn, beldi.Null},
		goldenCall{goldenClaimFn, beldi.Null})
}

// labelRecorder is a FaultPlan that never crashes and writes down what it
// was asked.
type labelRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (r *labelRecorder) ShouldCrash(fn, label string, opIndex int) bool {
	r.mu.Lock()
	r.lines = append(r.lines, fmt.Sprintf("%s %d %s", fn, opIndex, label))
	r.mu.Unlock()
	return false
}

func TestStepNamesCrashLabelsGolden(t *testing.T) {
	rec := &labelRecorder{}
	runGoldenWorkflows(t, nil, func(p *platform.Platform) { p.SetFaults(rec) })
	checkGolden(t, "crashlabels.golden", rec.lines)
}

func TestStepNamesSpansGolden(t *testing.T) {
	tel := beldi.NewTelemetry()
	runGoldenWorkflows(t, tel, func(*platform.Platform) {})
	var lines []string
	for _, s := range tel.Tracer.Spans() {
		lines = append(lines, fmt.Sprintf("%s %s %s step=%q name=%q child=%s parent=%s/%s replay=%v err=%q",
			s.Kind, s.Fn, s.Intent, s.Step, s.Name, s.Child, s.ParentIntent, s.ParentStep, s.Replay, s.Err))
	}
	checkGolden(t, "spans.golden", lines)
}

// TestDurableSpansGolden pins the trace core.DurableSpans rebuilds from the
// golden run's tables alone, one sorted line per span without the
// wall-clock Start and End. Regenerate only for a deliberate change:
// go test ./beldi -run DurableSpans -update.
func TestDurableSpansGolden(t *testing.T) {
	store := runGoldenWorkflows(t, nil, func(*platform.Platform) {})
	spans, err := core.DurableSpans(store)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, s := range spans {
		lines = append(lines, fmt.Sprintf("%s %s %s step=%q name=%q child=%s parent=%s/%s replay=%v err=%q",
			s.Kind, s.Fn, s.Intent, s.Step, s.Name, s.Child, s.ParentIntent, s.ParentStep, s.Replay, s.Err))
	}
	sort.Strings(lines)
	checkGolden(t, "durablespans.golden", lines)
}

// TestStepNamesPanicLabel kills the chain at one recorded label: the
// instance's error names the label the plan matched, byte for byte.
func TestStepNamesPanicLabel(t *testing.T) {
	const label = "write:post:0.000003"
	plan := &platform.CrashOnce{Function: goldenChainFn, Label: label}
	plat := platform.New(platform.Options{IDs: &uuid.Seq{Prefix: "req"}, Faults: plan})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: dynamo.NewStore(), Platform: plat})
	d.Function(goldenChainFn, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		for i := 0; i < goldenChainWrites; i++ {
			if err := e.Write("state", fmt.Sprint(i), beldi.Int(int64(i))); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Null, nil
	}, "state")
	_, err := d.Invoke(goldenChainFn, beldi.Null)
	if !plan.Fired() || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at %q", label)) {
		t.Errorf("crash at %s: fired %v, err %v", label, plan.Fired(), err)
	}
}

func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := []byte(strings.Join(lines, "\n") + "\n")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
