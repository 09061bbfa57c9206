package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/beldi"
	"repro/internal/apps/media"
	"repro/internal/apps/orders"
	"repro/internal/apps/social"
	"repro/internal/apps/travel"
	"repro/internal/workload"
)

// Figures 14 (movie review), 15 (travel reservation) and 26 (social media):
// median and 99th-percentile response time versus offered throughput, Beldi
// against the baseline, under the DeathStarBench-derived request mixes. The
// paper sweeps 100→800 req/s on AWS, saturating at the 1,000-concurrent-
// Lambda account limit; the harness recreates the same knee by scaling the
// platform's concurrency ceiling along with its latency model.

// workloadApp is the slice of an application the sweep needs.
type workloadApp interface {
	Entry() string
	Request(r *rand.Rand) beldi.Value
}

// BuildApp wires the named app ("media", "travel", "travel-notxn", "social"
// or "orders") onto a system and seeds it. "travel-notxn" is the §7.4
// ablation: Beldi fault tolerance without the reservation transaction.
// "orders" is the event-driven pipeline: its workflow edges are
// asynchronous invocations under durable async.
func BuildApp(sys *System, name string) (workloadApp, error) {
	switch name {
	case "media":
		app := media.Build(sys.D)
		return app, app.Seed()
	case "travel":
		app := travel.Build(sys.D)
		return app, app.Load()
	case "travel-notxn":
		app := travel.Build(sys.D)
		app.DisableTxn = true
		return app, app.Load()
	case "social":
		app := social.Build(sys.D)
		return app, app.Seed()
	case "orders":
		app := orders.Build(sys.D)
		if err := app.Seed(); err != nil {
			return nil, err
		}
		app.EnableEvents(orders.DefaultEventOptions())
		return app, nil
	default:
		return nil, fmt.Errorf("bench: unknown app %q", name)
	}
}

// SweepPoint is one x-position of a latency-throughput figure.
type SweepPoint struct {
	Rate       float64
	Throughput float64
	P50, P99   time.Duration
	Errors     int64
	Dropped    int64
}

// Curve is one line of a latency-throughput figure, described completely.
type Curve struct {
	// Label names the curve in its figure's first column.
	Label string
	// App is the BuildApp name the curve drives, in Mode.
	App  string
	Mode beldi.Mode
	// Rates are the offered loads (req/s), one point each.
	Rates []float64
	// Duration is each point's measured window (the paper uses 5 minutes;
	// scaled runs use seconds); a quarter of it runs first as warmup.
	Duration time.Duration
	// Scale compresses simulated latency.
	Scale float64
	Seed  int64
}

// AppCurves is Figure 14 (app "media"), 15 ("travel"), 26 ("social") or the
// orders figure ("orders"): the app under the baseline, then under Beldi.
func AppCurves(app string, rates []float64, duration time.Duration, scale float64, seed int64) []Curve {
	var curves []Curve
	for _, mode := range []beldi.Mode{beldi.ModeBaseline, beldi.ModeBeldi} {
		curves = append(curves, Curve{Label: ModeLabel(mode), App: app, Mode: mode,
			Rates: rates, Duration: duration, Scale: scale, Seed: seed})
	}
	return curves
}

// NoTxnCurves is §7.4's ablation (15b): the travel site on Beldi with its
// reservation transaction, then without it (the paper measures a 16% lower
// median and 20% lower p99 at saturation).
func NoTxnCurves(rates []float64, duration time.Duration, scale float64, seed int64) []Curve {
	var curves []Curve
	for _, app := range []string{"travel", "travel-notxn"} {
		curves = append(curves, Curve{Label: app, App: app, Mode: beldi.ModeBeldi,
			Rates: rates, Duration: duration, Scale: scale, Seed: seed})
	}
	return curves
}

// RunCurve runs one latency-throughput curve on a fresh system.
func RunCurve(c Curve) ([]SweepPoint, error) {
	// The paper's 1,000-Lambda ceiling produces a knee around 800 req/s for
	// these apps; with latencies compressed by Scale each instance holds its
	// slot for ~Scale× as long, so the equivalent ceiling scales accordingly.
	// The constant is calibrated so the Beldi curve saturates near the top of
	// the figures' 100–800 req/s range, like the paper's.
	concurrency := max(8, int(3300*c.Scale))
	sys := NewSystem(SystemOptions{
		Mode: c.Mode, Scale: c.Scale, Seed: c.Seed,
		Concurrency: concurrency,
		Config: beldi.Config{
			RowCap: 16,
			T:      2 * time.Second,
		},
	})
	app, err := BuildApp(sys, c.App)
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for _, rate := range c.Rates {
		res := workload.Run(workload.Options{
			Rate:     rate,
			Duration: c.Duration,
			Warmup:   c.Duration / 4,
			Seed:     c.Seed,
		}, func(r *rand.Rand) error {
			_, err := sys.D.Invoke(app.Entry(), app.Request(r))
			return err
		})
		out = append(out, SweepPoint{
			Rate:       rate,
			Throughput: res.Throughput(),
			P50:        res.Latency.Median(),
			P99:        res.Latency.P99(),
			Errors:     res.Errors,
			Dropped:    res.Dropped,
		})
		// Collect between points so log growth from one point does not
		// bleed into the next (the paper's collectors run on 1-minute
		// timers throughout).
		if err := sys.D.RunAllCollectors(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
