package bench

import (
	"fmt"
	"time"

	"repro/beldi"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// The fan-out sweep measures the durable-promise fan-out/fan-in path:
// committed worker results per second (and completed fan-ins per second)
// versus the fan-out width, under a fixed population of closed-loop drivers.
// Each driver invocation fans out `width` AsyncInvokePromise calls and awaits
// them all; every await is a logged step and every result a durable post into
// the driver's invoke log, so the sweep prices exactly what Durable
// Functions-style orchestrations (Burckhardt et al.) pay for crash-safe
// fan-in on Beldi's substrate. Baseline mode runs the same shape on in-memory
// futures with no durability — the gap is the cost of the guarantee.

// fanoutDrivers is the fixed offered load: closed-loop orchestrators.
const fanoutDrivers = 8

// FanoutCell is one (width, mode) cell of the fan-out sweep.
type FanoutCell struct {
	// Label is "<width>/<mode>".
	Label string
	// Width is the promises each round fans out; Mode is the machinery.
	Width int
	Mode  beldi.Mode
	// Duration is the measured window.
	Duration time.Duration
	// Scale compresses the per-op cloud latency.
	Scale float64
	Seed  int64
}

// FanoutCells is the fan-out sweep: widths 1, 2, 4, 8, 16, each on Beldi
// then on the baseline.
func FanoutCells(duration time.Duration, scale float64, seed int64) []FanoutCell {
	var cells []FanoutCell
	for width := 1; width <= 16; width *= 2 {
		for _, mode := range []beldi.Mode{beldi.ModeBeldi, beldi.ModeBaseline} {
			cells = append(cells, FanoutCell{Label: fmt.Sprintf("%d/%s", width, mode), Width: width, Mode: mode,
				Duration: duration, Scale: scale, Seed: seed})
		}
	}
	return cells
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

// RunFanout measures one cell on a fresh system: fanoutDrivers closed-loop
// orchestrators, each fanning Width promise invocations per round, for
// Duration.
func RunFanout(c FanoutCell) (FanoutSweepPoint, error) {
	store := cloudStore(c.Scale, c.Seed)
	plat := platform.New(platform.Options{
		ConcurrencyLimit: fanoutDrivers * (c.Width + 2),
		Seed:             c.Seed,
		IDs:              &uuid.Seq{Prefix: "req"},
	})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat, Mode: c.Mode,
		Config: beldi.Config{RowCap: 16},
	})
	d.Function("work", func(e *beldi.Env, input beldi.Value) (beldi.Value, error) {
		return beldi.Int(input.Int() * 2), nil
	})
	d.Function("fan", func(e *beldi.Env, input beldi.Value) (beldi.Value, error) {
		ps := make([]*beldi.Promise, c.Width)
		for i := 0; i < c.Width; i++ {
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
	lat, err := closedLoop(fanoutDrivers, start.Add(c.Duration), func(int, int) error {
		out, err := d.Invoke("fan", beldi.Null)
		if err == nil && out.Int() != int64(c.Width) {
			err = fmt.Errorf("fan-in returned %d results, want %d", out.Int(), c.Width)
		}
		return err
	})
	elapsed := time.Since(start)
	plat.Drain()
	d.Stop()
	if err != nil {
		return FanoutSweepPoint{}, fmt.Errorf("bench: fanout cell %s: %w", c.Label, err)
	}
	n := lat.Count()
	return FanoutSweepPoint{
		Width:        c.Width,
		Mode:         ModeLabel(c.Mode),
		FanIns:       n,
		Results:      n * int64(c.Width),
		Throughput:   float64(n*int64(c.Width)) / elapsed.Seconds(),
		FanInsPerSec: float64(n) / elapsed.Seconds(),
		P50:          lat.Median(),
		P99:          lat.P99(),
		Elapsed:      elapsed,
	}, nil
}
