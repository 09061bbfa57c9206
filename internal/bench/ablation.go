package bench

import (
	"fmt"
	"time"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/hist"
)

// Traversal ablation (§4.1): Beldi finds a linked DAAL's tail with one
// scan+projection round trip and then reads the tail row; the naive
// alternative chases NextRow pointers with one read per row; the production
// read folds the tail read into the scan by projecting the state with the
// skeleton. The paper credits DynamoDB's scan/filter/projection efficiency
// for keeping deep DAALs cheap (§7.5) — this ablation quantifies the three
// designs in round trips and response bytes as depth grows, which is the
// evidence for running the one-query read at every depth with no threshold.

// traversalStrategies are the ablation's strategies, in reporting order.
var traversalStrategies = []string{"one-query", "scan", "pointer-chase"}

// AblationRow is one (depth, strategy) measurement.
type AblationRow struct {
	Depth     int
	Strategy  string // one of traversalStrategies
	Median    time.Duration
	StoreOps  float64 // store round trips per traversal
	BytesRead float64 // response bytes per traversal
}

// AblationOptions configure the traversal ablation.
type AblationOptions struct {
	// Depths are the DAAL depths to measure. nil means 1, 2, 4, … 64.
	Depths []int
	// Ops per cell. 0 means 40.
	Ops int
	// Scale compresses simulated latency. 0 means 0.2.
	Scale float64
	Seed  int64
}

// TraversalAblation measures every strategy at each depth.
func TraversalAblation(opts AblationOptions) ([]AblationRow, error) {
	if opts.Depths == nil {
		opts.Depths = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if opts.Ops == 0 {
		opts.Ops = 40
	}
	if opts.Scale == 0 {
		opts.Scale = 0.2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	var out []AblationRow
	for _, depth := range opts.Depths {
		rows, err := ablationDepth(depth, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation depth=%d: %w", depth, err)
		}
		out = append(out, rows...)
	}
	return out, nil
}

// ablationDepth grows one key's DAAL to depth rows (the tail holding one
// entry) and measures every strategy against it.
func ablationDepth(depth int, opts AblationOptions) ([]AblationRow, error) {
	const rowCap = 16
	sys := NewSystem(SystemOptions{
		Mode: beldi.ModeBeldi, Scale: opts.Scale, Seed: opts.Seed,
		Concurrency: 10000,
		Config:      beldi.Config{RowCap: rowCap, T: time.Hour},
	})
	sys.D.Function("fill", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		for i := int64(0); i < in.Int(); i++ {
			if err := e.Write("data", "k", beldi.Str(value16)); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Null, nil
	}, "data")
	fillWrites := (depth-1)*rowCap + 1
	if _, err := sys.D.Invoke("fill", beldi.Int(int64(fillWrites))); err != nil {
		return nil, err
	}

	rt := sys.D.Runtime("fill")
	var out []AblationRow
	for _, strategy := range traversalStrategies {
		h := &hist.Histogram{}
		before := sys.Store.Metrics().Snapshot()
		for i := 0; i < opts.Ops; i++ {
			t0 := time.Now()
			v, err := core.TailValue(rt, strategy, "data", "k")
			if err != nil {
				return nil, fmt.Errorf("%s: %w", strategy, err)
			}
			if v.Str() != value16 {
				return nil, fmt.Errorf("%s: resolved %v, not the written value", strategy, v)
			}
			h.Record(time.Since(t0))
		}
		diff := sys.Store.Metrics().Snapshot().Sub(before)
		out = append(out, AblationRow{
			Depth:     depth,
			Strategy:  strategy,
			Median:    h.Median(),
			StoreOps:  float64(diff.TotalOps()) / float64(opts.Ops),
			BytesRead: float64(diff.BytesRead) / float64(opts.Ops),
		})
	}
	return out, nil
}
