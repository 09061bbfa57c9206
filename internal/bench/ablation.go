package bench

import (
	"fmt"
	"strconv"
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

// AblationDepth is one DAAL depth of the ablation, at which every strategy
// is measured. Medians are modeled time at scale 1, read from the run's
// virtual clock (see RunOp).
type AblationDepth struct {
	// Label is the depth in decimal.
	Label string
	Depth int
	Seed  int64
}

// ablationOps is the number of traversals per strategy and depth.
const ablationOps = 40

// AblationDepths is the ablation's depths, 1, 2, 4, … 64 rows.
func AblationDepths(seed int64) []AblationDepth {
	var depths []AblationDepth
	for depth := 1; depth <= 64; depth *= 2 {
		depths = append(depths, AblationDepth{Label: strconv.Itoa(depth), Depth: depth, Seed: seed})
	}
	return depths
}

// RunDepth grows one key's DAAL to the depth's row count (the tail holding
// one entry) on a fresh system and measures every strategy against it.
func RunDepth(d AblationDepth) ([]AblationRow, error) {
	const rowCap = 16
	fail := func(err error) ([]AblationRow, error) {
		return nil, fmt.Errorf("bench: ablation depth=%d: %w", d.Depth, err)
	}
	sys, clk := virtualSystem(beldi.ModeBeldi, d.Seed, beldi.Config{RowCap: rowCap, T: time.Hour})
	sys.D.Function("fill", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		for i := int64(0); i < in.Int(); i++ {
			if err := e.Write("data", "k", beldi.Str(value16)); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Null, nil
	}, "data")
	fillWrites := (d.Depth-1)*rowCap + 1
	if _, err := sys.D.Invoke("fill", beldi.Int(int64(fillWrites))); err != nil {
		return fail(err)
	}

	rt := sys.D.Runtime("fill")
	var out []AblationRow
	for _, strategy := range traversalStrategies {
		h := &hist.Histogram{}
		before := sys.Store.Metrics().Snapshot()
		for i := 0; i < ablationOps; i++ {
			t0 := clk.Now()
			v, err := core.TailValue(rt, strategy, "data", "k")
			if err != nil {
				return fail(fmt.Errorf("%s: %w", strategy, err))
			}
			if v.Str() != value16 {
				return fail(fmt.Errorf("%s: resolved %v, not the written value", strategy, v))
			}
			h.Record(clk.Now().Sub(t0))
		}
		diff := sys.Store.Metrics().Snapshot().Sub(before)
		out = append(out, AblationRow{
			Depth:     d.Depth,
			Strategy:  strategy,
			Median:    h.Median(),
			StoreOps:  float64(diff.TotalOps()) / ablationOps,
			BytesRead: float64(diff.BytesRead) / ablationOps,
		})
	}
	return out, nil
}
