// Command benchmarks is the repository's one workflow benchmark: four named
// workloads run as episodes of fixed, seeded work against fresh deployments,
// reported as end-to-end metrics a user of the system sees and a per-layer
// ledger that explains them. See README.md in this directory.
//
//	benchmarks --workload travel-mem --seed 1 --seconds 10 --trace 0   one run, end-to-end metrics
//	benchmarks --workload travel-mem --seed 1 --seconds 10 --trace 1   one run, per-layer metrics
//	benchmarks [-workload all] [-out dir]                              every workload, every metric
//	benchmarks -smoke                                                  tiny episodes, every gate
//	benchmarks -aa 5 [-vary-seed]                                      same-commit repeatability table
//	benchmarks -compare parent/bench.json change/bench.json            before/after table
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// options are the driver's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	smoke    bool
	aa       int
	varySeed bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the timed episodes of a run go on for")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (traced pass and probes); -1: both")
	flag.StringVar(&o.out, "out", "", "directory for bench.json and trace-<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "1 warm-up + 1 episode of 50 workflows per workload, every correctness gate")
	flag.IntVar(&o.aa, "aa", 0, "run the suite 2×k times as two interleaved sets and compare them")
	flag.BoolVar(&o.varySeed, "vary-seed", false, "with -aa: run i of each set uses seed+i, as the acceptance procedure does")
	flag.BoolVar(&o.compare, "compare", false, "compare two bench.json files: -compare parent.json change.json")
	flag.Parse()

	// The machine rules: at most two Ps, the default collector pacing and no
	// memory limit, whatever the environment says.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	if err := run(os.Stdout, o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose outputs failed a correctness gate.
var errIncorrect = errors.New("a correctness gate failed")

func run(out io.Writer, o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two bench.json files")
		}
		parent, err := readRunFile(args[0])
		if err != nil {
			return err
		}
		change, err := readRunFile(args[1])
		if err != nil {
			return err
		}
		printCompare(out, parent, change)
		return nil
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}

	selected := workloads
	if o.workload != "all" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
	}

	if o.aa > 0 {
		return runAA(out, selected, o)
	}

	var runs []*result
	for i := range selected {
		res, err := runWorkload(runOptions{
			w: &selected[i], seed: o.seed, seconds: o.seconds,
			endToEnd: o.trace != 1, layers: o.trace != 0,
			smoke: o.smoke, out: o.out,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", selected[i].name, err)
		}
		runs = append(runs, res)
		printResult(out, res)
	}
	if o.out != "" {
		if err := writeRunFile(filepath.Join(o.out, "bench.json"), runs); err != nil {
			return err
		}
	}
	if len(runs) == 1 {
		// The result line: the last line of standard output of a
		// single-workload run.
		if err := printResultLine(out, runs[0], o.trace); err != nil {
			return err
		}
	}
	for _, r := range runs {
		if !r.Correct {
			return errIncorrect
		}
	}
	return nil
}

// runAA runs the selected workloads 2×k times as two interleaved sets
// A, B, A, B, … of the same commit and prints how well they agree.
func runAA(out io.Writer, selected []workload, o options) error {
	var sets [2][]*result
	for rep := 0; rep < o.aa; rep++ {
		for set := range sets {
			s := o.seed
			if o.varySeed {
				s += int64(rep)
			}
			for i := range selected {
				res, err := runWorkload(runOptions{w: &selected[i], seed: s, seconds: o.seconds, endToEnd: true})
				if err != nil {
					return fmt.Errorf("%s: %w", selected[i].name, err)
				}
				if !res.Correct {
					printResult(out, res)
					return errIncorrect
				}
				sets[set] = append(sets[set], res)
				fmt.Fprintf(out, "# run %d/%d set %c %s seed %d\n", rep+1, o.aa, 'A'+set, res.Workload, s)
			}
		}
	}
	if o.out != "" {
		for set, name := range []string{"aa-a.json", "aa-b.json"} {
			if err := writeRunFile(filepath.Join(o.out, name), sets[set]); err != nil {
				return err
			}
		}
	}
	if !printAA(out, sets[0], sets[1], !o.varySeed) {
		return fmt.Errorf("the two sets disagree")
	}
	return nil
}

// printResult prints every metric of a run by name, with its unit.
func printResult(out io.Writer, r *result) {
	fmt.Fprintf(out, "== %s  seed %d  correct %v  attempted %d  failed %d\n", r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed)
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "   %-36s %s\n", k, r.Info[k])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(out, "   ERROR %s\n", e)
	}
	printSet := func(title string, defs []metricDef, set map[string]metricValue) {
		if set == nil {
			return
		}
		fmt.Fprintf(out, " %s\n", title)
		for _, d := range defs {
			fmt.Fprintf(out, "   %-40s %16.4f %s\n", d.name, set[d.name].Value, d.unit)
		}
	}
	printSet("end-to-end", endToEnd, r.EndToEnd)
	if r.PerLayer == nil {
		printSet("client (not gated)", clientTimings, r.Client)
	}
	printSet("per-layer", perLayer, r.PerLayer)
}

// printResultLine prints the one-line JSON result: the end-to-end metrics
// of a --trace 0 run, the per-layer metrics of a --trace 1 run, both sets
// otherwise.
func printResultLine(out io.Writer, r *result, trace int) error {
	metrics := make(map[string]metricValue)
	if trace != 1 {
		for k, v := range r.EndToEnd {
			metrics[k] = v
		}
	}
	if trace != 0 {
		for k, v := range r.PerLayer {
			metrics[k] = v
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
