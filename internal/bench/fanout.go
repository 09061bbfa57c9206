package bench

import (
	"fmt"
	"time"

	"repro/beldi"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// FanoutSweep measures the durable-promise fan-out/fan-in path: committed
// worker results per second (and completed fan-ins per second) versus the
// fan-out width, under a fixed population of closed-loop drivers. Each
// driver invocation fans out `width` AsyncInvokePromise calls and awaits
// them all; every await is a logged step and every result a durable
// post into the driver's invoke log, so the sweep prices exactly what Durable Functions-style
// orchestrations (Burckhardt et al.) pay for crash-safe fan-in on Beldi's
// substrate. Baseline mode runs the same shape on in-memory futures with
// no durability — the gap is the cost of the guarantee.

// fanoutDrivers is the fixed offered load: closed-loop orchestrators.
const fanoutDrivers = 8

// FanoutSweepOptions configure a fan-out sweep.
type FanoutSweepOptions struct {
	// Widths are the fan-out widths to sweep. nil means 1, 2, 4, 8, 16.
	Widths []int
	// Modes are the machinery modes per width. nil means Beldi then
	// baseline.
	Modes []beldi.Mode
	// Duration is the measurement window per point. 0 means 400ms.
	Duration time.Duration
	// Scale compresses the per-op cloud latency; 0 means 0.02.
	Scale float64
	Seed  int64
}

func (o FanoutSweepOptions) withDefaults() FanoutSweepOptions {
	if o.Widths == nil {
		o.Widths = []int{1, 2, 4, 8, 16}
	}
	if o.Modes == nil {
		o.Modes = []beldi.Mode{beldi.ModeBeldi, beldi.ModeBaseline}
	}
	if o.Duration == 0 {
		o.Duration = 400 * time.Millisecond
	}
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// FanoutSweepPoint is one (width, mode) cell of the sweep.
type FanoutSweepPoint struct {
	Width int
	Mode  string
	// FanIns is the number of completed fan-out/fan-in rounds in the
	// window; Results is FanIns×Width (awaited worker results).
	FanIns  int64
	Results int64
	// Throughput is Results per second — the figure's y-value.
	Throughput float64
	// FanInsPerSec is completed rounds per second.
	FanInsPerSec float64
	// P50 / P99 are round latencies (fan-out through last await).
	P50, P99 time.Duration
	Elapsed  time.Duration
}

// FanoutSweep runs the full grid: every width, every mode, each against a
// fresh system under the same offered load.
func FanoutSweep(opts FanoutSweepOptions) ([]FanoutSweepPoint, error) {
	opts = opts.withDefaults()
	var out []FanoutSweepPoint
	for _, width := range opts.Widths {
		if width < 1 {
			return nil, fmt.Errorf("bench: fanout sweep: invalid width %d", width)
		}
		for _, mode := range opts.Modes {
			pt, err := fanoutSweepPoint(opts, width, mode)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// fanoutSweepPoint measures one cell: fanoutDrivers closed-loop orchestrators,
// each fanning width promise invocations per round, for Duration.
func fanoutSweepPoint(opts FanoutSweepOptions, width int, mode beldi.Mode) (FanoutSweepPoint, error) {
	store := dynamo.NewStore(dynamo.WithLatency(dynamo.NewCloudLatency(opts.Scale, opts.Seed)))
	plat := platform.New(platform.Options{
		ConcurrencyLimit: fanoutDrivers * (width + 2),
		Seed:             opts.Seed,
		IDs:              &uuid.Seq{Prefix: "req"},
	})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat, Mode: mode,
		Config: beldi.Config{RowCap: 16},
	})
	d.Function("work", func(e *beldi.Env, input beldi.Value) (beldi.Value, error) {
		return beldi.Int(input.Int() * 2), nil
	})
	d.Function("fan", func(e *beldi.Env, input beldi.Value) (beldi.Value, error) {
		ps := make([]*beldi.Promise, width)
		for i := 0; i < width; i++ {
			p, err := e.AsyncInvokePromise("work", beldi.Int(int64(i)))
			if err != nil {
				return beldi.Null, err
			}
			ps[i] = p
		}
		outs, err := e.AwaitAll(ps...)
		if err != nil {
			return beldi.Null, err
		}
		return beldi.Int(int64(len(outs))), nil
	})

	start := time.Now()
	lat, err := closedLoop(fanoutDrivers, start.Add(opts.Duration), func(int, int) error {
		out, err := d.Invoke("fan", beldi.Null)
		if err == nil && out.Int() != int64(width) {
			err = fmt.Errorf("fan-in returned %d results, want %d", out.Int(), width)
		}
		return err
	})
	elapsed := time.Since(start)
	plat.Drain()
	d.Stop()
	if err != nil {
		return FanoutSweepPoint{}, fmt.Errorf("bench: fanout sweep (width %d, %s): %w", width, ModeLabel(mode), err)
	}
	n := lat.Count()
	return FanoutSweepPoint{
		Width:        width,
		Mode:         ModeLabel(mode),
		FanIns:       n,
		Results:      n * int64(width),
		Throughput:   float64(n*int64(width)) / elapsed.Seconds(),
		FanInsPerSec: float64(n) / elapsed.Seconds(),
		P50:          lat.Median(),
		P99:          lat.P99(),
		Elapsed:      elapsed,
	}, nil
}
