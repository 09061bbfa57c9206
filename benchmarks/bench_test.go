package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// plainBackend hides every optional capability of the backend it wraps.
type plainBackend struct{ storage.Backend }

func exerciseBackend(t *testing.T, b storage.Backend) {
	t.Helper()
	storage.MustCreateTable(b, storage.Schema{Name: "t", HashKey: "K"})
	key := dynamo.HK(dynamo.S("a"))
	if err := b.Put("t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Update("t", key, nil, dynamo.Set(dynamo.A("V"), dynamo.NInt(2))); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.Get("t", key); err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if _, err := b.Query("t", dynamo.S("a"), storage.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := b.TransactWrite([]storage.TxOp{{Table: "t", Put: storage.Item{"K": dynamo.S("b")}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("t", key, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTracedBackendForwardsCapabilitiesAndCounts(t *testing.T) {
	bare, inner := dynamo.NewStore(), dynamo.NewStore()
	rec := newRecorder(time.Now())
	traced := traceBackend(inner, rec)

	if got, ok := storage.AsDynamo(traced); !ok || got != inner {
		t.Errorf("AsDynamo through the decorator = %v, %v; want the inner store", got, ok)
	}
	if _, ok := traced.(storage.Fencer); !ok {
		t.Error("decorator is not a storage.Fencer")
	}
	if err := storage.Fence(traced); err != nil {
		t.Errorf("Fence: %v", err)
	}

	exerciseBackend(t, bare)
	exerciseBackend(t, traced)
	if want, got := bare.Metrics().Snapshot(), traced.Metrics().Snapshot(); !reflect.DeepEqual(want, got) {
		t.Errorf("Metrics differ through the decorator:\n bare   %+v\n traced %+v", want, got)
	}
	sub, ok := storage.Watch(traced, "t", dynamo.Null)
	if !ok {
		t.Fatal("Watch through the decorator not forwarded")
	}
	defer sub.Close()
	if err := traced.Put("t", storage.Item{"K": dynamo.S("c")}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Events():
	default:
		t.Error("commit did not reach the subscription taken through the decorator")
	}

	spans := rec.take()
	classes := make([]opClass, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
		classes[i] = s.op
	}
	want := []opClass{opAdmin, opUpdate, opUpdate, opGet, opQuery, opTransact, opUpdate, opUpdate}
	if !slices.Equal(classes, want) {
		t.Errorf("span classes %v, want %v", classes, want)
	}

	// Over a backend without the optional capabilities the decorator must
	// not claim them.
	hidden := traceBackend(plainBackend{dynamo.NewStore()}, rec)
	if _, ok := storage.AsDynamo(hidden); ok {
		t.Error("decorator over a plain backend claims a dynamo store")
	}
	storage.MustCreateTable(hidden, storage.Schema{Name: "t", HashKey: "K"})
	if _, ok := storage.Watch(hidden, "t", dynamo.Null); ok {
		t.Error("decorator over a plain backend claims Watch")
	}
	if err := storage.Fence(hidden); err != nil {
		t.Errorf("Fence over a plain backend: %v", err)
	}
}

func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, driver %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, defs []metricDef, listed []metric, bounded bool) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s %q: malformed definition %+v", kind, d.name, d)
			}
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, driver %+v", kind, i, l, d)
			}
			if bounded != (l.Bound != nil) || (bounded && (*l.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %q: bound mismatch or out of (0, 0.25]", kind, d.name)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd, true)
	check("per_layer", perLayer, spec.PerLayer, false)
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == "setup_s" && d.unit == "s" && d.better == "lower" }) {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, driver default %d", spec.RunSeconds, defaultSeconds)
	}
}

func smokeRun(t *testing.T, w *workload, seed int64) *result {
	t.Helper()
	res, err := runWorkload(runOptions{w: w, seed: seed, endToEnd: true, layers: true, smoke: true})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 3*w.smokeN {
		t.Fatalf("%s: correct %v, %d of %d failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Errors)
	}
	return res
}

// TestSmoke runs every workload at smoke size through every correctness
// gate, twice with the same seed: every metric is reported, end-to-end
// metrics are never 0, and on the single-path workloads every count is a
// function of the input alone.
func TestSmoke(t *testing.T) {
	// Counts and bytes are functions of the input; times, ratios of times,
	// allocations, the recovery probe's interleaving and process-wide
	// numbers are not.
	measured := regexp.MustCompile(`alloc|crashed|^process\.`)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			first := smokeRun(t, w, 7)
			for _, d := range endToEnd {
				if v, ok := first.EndToEnd[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("end-to-end %s = %+v (present %v)", d.name, v, ok)
				}
			}
			for _, d := range perLayer {
				if _, ok := first.PerLayer[d.name]; !ok {
					t.Errorf("per-layer %s missing", d.name)
				}
			}
			if !w.singlePath {
				return
			}
			second := smokeRun(t, w, 7)
			for _, set := range []struct {
				defs []metricDef
				a, b map[string]metricValue
			}{{endToEnd, first.EndToEnd, second.EndToEnd}, {perLayer, first.PerLayer, second.PerLayer}} {
				for _, d := range set.defs {
					if (d.unit != "count" && d.unit != "bytes") || measured.MatchString(d.name) {
						continue
					}
					if set.a[d.name] != set.b[d.name] {
						t.Errorf("%s: %v then %v with the same seed", d.name, set.a[d.name].Value, set.b[d.name].Value)
					}
				}
			}
		})
	}
}

func TestSeedDecidesTheInputs(t *testing.T) {
	a, b, c := travelRequests(1, 300), travelRequests(1, 300), travelRequests(2, 300)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different request lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same request list")
	}
	// Every block of 100 holds exactly the mix.
	for block := 0; block < 3; block++ {
		mix := map[string]int{}
		for _, r := range c[block*100 : (block+1)*100] {
			mix[r.Map()["op"].Str()]++
		}
		if !reflect.DeepEqual(mix, travelMix) {
			t.Errorf("block %d mix %v, want %v", block, mix, travelMix)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	spans := []span{{start: 0, end: 10}, {start: 5, end: 20}, {start: 30, end: 40}, {start: 35, end: 60}}
	if got := covered(spans, 0, 50); got != 20+20 {
		t.Errorf("covered = %d, want 40", got)
	}
}
