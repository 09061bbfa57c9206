// Package bench is the experiment harness behind every figure in the
// paper's evaluation (§7). Each figure is a function returning its parameter
// sets — every value spelled out, built only from what the caller passes
// (the window, the latency compression, the seed and the like) — and a
// runner that measures one set; RunAll measures a figure. cmd/figures prints
// the series the paper plots; bench_test.go runs the same sets as testing.B
// benchmarks.
//
// Absolute numbers are simulator-relative (the substrate recreates
// DynamoDB/Lambda cost *structure*, not AWS hardware), so each experiment's
// claim is the paper's shape: who wins, by what factor, and where the knees
// and crossovers sit. EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"time"

	"repro/beldi"
	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/uuid"
)

// System is a fully rigged deployment: store + platform + Beldi runtime in
// one mode, with cloud-shaped latency.
type System struct {
	Store storage.Backend
	Plat  *platform.Platform
	D     *beldi.Deployment
	Mode  beldi.Mode
	Scale float64
}

// SystemOptions describe a System completely: every caller fills in every
// field.
type SystemOptions struct {
	Mode beldi.Mode
	// Scale compresses all simulated latencies (1.0 = DynamoDB-like
	// milliseconds; benchmarks use ~0.1–0.3 to run quickly).
	Scale float64
	// Seed drives every stochastic component.
	Seed int64
	// Concurrency is the platform's lambda limit (the paper's 1,000-Lambda
	// bottleneck; sweeps scale it down with Scale).
	Concurrency int
	// Config tunes Beldi.
	Config beldi.Config
}

// NewSystem builds a System on the wall clock.
func NewSystem(opts SystemOptions) *System { return newSystem(opts, clock.Real{}) }

// newSystem builds a System whose store, platform and deployment all wait on
// clk: the store's round trips and commits, the platform's start latencies,
// and the runtime's timestamps.
func newSystem(opts SystemOptions, clk clock.Clock) *System {
	store := cloudStore(opts.Scale, opts.Seed, dynamo.WithClock(clk))
	plat := platform.New(platform.Options{
		ConcurrencyLimit: opts.Concurrency,
		// Lambda dispatch costs: ~60ms cold, ~15ms warm (HTTP + SDK + scheduler),
		// scaled with everything else.
		ColdStart: time.Duration(float64(60*time.Millisecond) * opts.Scale),
		WarmStart: time.Duration(float64(15*time.Millisecond) * opts.Scale),
		// DeathStarBench handlers do real work (JSON, templating, business
		// logic) beyond storage round trips.
		HandlerCompute: time.Duration(float64(6*time.Millisecond) * opts.Scale),
		Jitter:         0.2,
		Seed:           opts.Seed,
		IDs:            &uuid.Seq{Prefix: "req"},
		Clock:          clk,
	})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat, Mode: opts.Mode, Config: opts.Config, Clock: clk,
	})
	return &System{Store: store, Plat: plat, D: d, Mode: opts.Mode, Scale: opts.Scale}
}

// cloudStore is the in-memory store under cloud-shaped per-op latency
// compressed by scale: the substrate of every figure but the step-commit
// cells.
func cloudStore(scale float64, seed int64, opts ...dynamo.Option) *dynamo.Store {
	return dynamo.NewStore(append(opts, dynamo.WithLatency(dynamo.NewCloudLatency(scale, seed)))...)
}

// virtualSystem builds a System at scale 1 on a fresh clock.Virtual: the
// substrate of the sequential runners (RunOp, RunDepth, Costs). Every
// modeled wait advances the clock at once, so a duration read from the
// returned clock is the modeled cost of what ran, an exact function of the
// seed, and the run takes no wall time waiting. It is only sound while one
// operation runs at a time.
func virtualSystem(mode beldi.Mode, seed int64, config beldi.Config) (*System, *clock.Virtual) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	return newSystem(SystemOptions{Mode: mode, Scale: 1, Seed: seed, Concurrency: 10000, Config: config}, clk), clk
}

// RunAll measures a figure's parameter sets in order, each with run, stopping
// at the first that fails.
func RunAll[P, R any](set []P, run func(P) (R, error)) ([]R, error) {
	out := make([]R, 0, len(set))
	for _, p := range set {
		r, err := run(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ModeLabel names modes the way the figures do.
func ModeLabel(m beldi.Mode) string {
	switch m {
	case beldi.ModeBeldi:
		return "Beldi"
	case beldi.ModeCrossTable:
		return "Beldi (cross-table txn)"
	default:
		return "Baseline"
	}
}
