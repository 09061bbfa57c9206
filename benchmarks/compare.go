package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// runFile is what -out writes as bench.json and -compare reads: every run
// of a session, in the order made.
type runFile struct {
	Runs []*result `json:"runs"`
}

func writeRunFile(path string, runs []*result) error {
	data, err := json.MarshalIndent(runFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readRunFile(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), so the
// spreads printed here are the ones the acceptance procedure computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j)*4
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sampleStats are the median and the interquartile spread (as a share of
// the median) of one metric over a set of runs.
type sampleStats struct {
	median, spread float64
}

func statsOf(values []float64) sampleStats {
	q1, q2, q3 := quartiles(values)
	return sampleStats{median: q2, spread: ratio(q3-q1, q2)}
}

// valuesOf collects one end-to-end metric or client timing of one workload
// over runs.
func valuesOf(runs []*result, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.EndToEnd[metric]; ok {
			vs = append(vs, m.Value)
		} else if m, ok := r.Client[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// reported are the rows of the -aa and -compare tables: the gated
// end-to-end metrics, then the client timings (bound 0: shown, not judged).
func reported() []metricDef { return slices.Concat(endToEnd, clientTimings) }

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// printAA reports two sets of runs of the same commit side by side. A
// metric passes when the two medians differ by less than half its bound and
// neither set's spread exceeds the bound. With identical is set, the count
// metrics of the single-path workloads must also be bit-identical across
// every run. Reports whether everything passed.
func printAA(out io.Writer, a, b []*result, identical bool) bool {
	ok := true
	fmt.Fprintf(out, "%-18s %-26s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range reported() {
			va, vb := valuesOf(a, w.name, d.name), valuesOf(b, w.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := statsOf(va), statsOf(vb)
			diff := worsening(d, sa.median, sb.median)
			verdict := "PASS"
			switch {
			case d.bound == 0:
				verdict = "not gated"
			case diff >= d.bound/2 || -diff >= d.bound/2:
				verdict = "FAIL medians differ by half the bound or more"
			case d.name != "setup_s" && max(sa.spread, sb.spread) > d.bound:
				verdict = "FAIL spread wider than the bound"
			case identical && w.singlePath && slices.Contains(countMetrics, d.name) &&
				(slices.Min(append(va, vb...)) != slices.Max(append(va, vb...))):
				verdict = "FAIL count not identical across runs"
			}
			if verdict != "PASS" && d.bound > 0 {
				ok = false
			}
			fmt.Fprintf(out, "%-18s %-26s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n",
				w.name, d.name, sa.median, sb.median, 100*diff, 100*sa.spread, 100*sb.spread, 100*d.bound, verdict)
		}
	}
	return ok
}

// printCompare is the before/after table every hot-path change reports:
// per workload and end-to-end metric, the parent's median, the change, the
// ratio with its base, and a verdict against the metric's bound.
func printCompare(out io.Writer, parent, change []*result) {
	fmt.Fprintf(out, "%-18s %-26s %12s %12s %9s %18s %8s %7s  %s\n",
		"workload", "metric", "parent", "change", "delta", "ratio (base)", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range reported() {
			va, vb := valuesOf(parent, w.name, d.name), valuesOf(change, w.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := statsOf(va), statsOf(vb)
			worse := worsening(d, sa.median, sb.median)
			spread := max(sa.spread, sb.spread)
			var verdict string
			switch {
			case d.bound == 0:
				verdict = "not gated"
			case spread > d.bound:
				verdict = "unresolved (spread wider than bound)"
			case worse > d.bound:
				verdict = "worse"
			case -worse > sa.spread && -worse > 0:
				verdict = "better"
			default:
				verdict = "within bound"
			}
			fmt.Fprintf(out, "%-18s %-26s %12.4f %12.4f %+8.2f%% %8.4f (%9.4f) %7.2f%% %6.1f%%  %s\n",
				w.name, d.name, sa.median, sb.median, 100*ratio(sb.median-sa.median, sa.median),
				ratio(sb.median, sa.median), sa.median, 100*spread, 100*d.bound, verdict)
		}
	}
}
