package bench

import (
	"fmt"
	"time"

	"repro/beldi"
	"repro/internal/hist"
)

// Figure 13 (and Figure 25 in Appendix C): median and 99th-percentile
// latency of Beldi's four primitives — read, write, condWrite, invoke —
// against the raw baseline and the cross-table-transaction comparator, at
// very low load with the target key's linked DAAL pre-populated to a fixed
// depth (20 rows in Fig 13, 5 in Fig 25). Keys are 1 byte, values 16 bytes
// (§7.3).

// Fig13Row is one bar of the figure.
type Fig13Row struct {
	Op     string
	Mode   beldi.Mode
	Median time.Duration
	P99    time.Duration
}

// OpCell is one bar of Figure 13 or 25: one primitive in one mode, timed
// over Ops sequential calls against a key whose linked DAAL holds DAALRows
// rows. Its latencies are modeled time at scale 1 (the paper's DynamoDB-like
// milliseconds), read from the virtual clock the run charges every round
// trip and start latency to, so a bar is an exact function of its seed.
type OpCell struct {
	// Label is "<op>/<mode>".
	Label string
	// Op is Read, Write, CondWrite or Invoke.
	Op   string
	Mode beldi.Mode
	// DAALRows is the pre-populated DAAL depth (20 for Fig 13, 5 for Fig
	// 25).
	DAALRows int
	// Ops is the number of measured operations. It must stay at or below
	// opRowCap so measurement itself does not grow the DAAL by more than one
	// row.
	Ops  int
	Seed int64
}

// opRowCap is the per-row log capacity: large enough that prefill, not
// measurement, sets the depth.
const opRowCap = 64

// value16 is the 16-byte value of §7.3.
const value16 = "0123456789abcdef"

// OpCells is the microbenchmark at a DAAL depth (20 rows for Fig 13, 5 for
// Fig 25), grouped by operation then mode (baseline, Beldi, cross-table),
// matching the figure's bar order.
func OpCells(daalRows, ops int, seed int64) []OpCell {
	var cells []OpCell
	for _, op := range []string{"Read", "Write", "CondWrite", "Invoke"} {
		for _, mode := range []beldi.Mode{beldi.ModeBaseline, beldi.ModeBeldi, beldi.ModeCrossTable} {
			cells = append(cells, OpCell{Label: op + "/" + mode.String(), Op: op, Mode: mode,
				DAALRows: daalRows, Ops: ops, Seed: seed})
		}
	}
	return cells
}

// RunOp measures one bar on a fresh system.
func RunOp(c OpCell) (Fig13Row, error) {
	fail := func(err error) (Fig13Row, error) {
		return Fig13Row{}, fmt.Errorf("bench: op cell %s: %w", c.Label, err)
	}
	sys, clk := virtualSystem(c.Mode, c.Seed, beldi.Config{RowCap: opRowCap, T: time.Hour})
	h := &hist.Histogram{}
	timed := func(f func() error) error {
		t0 := clk.Now()
		if err := f(); err != nil {
			return err
		}
		h.Record(clk.Now().Sub(t0))
		return nil
	}

	sys.D.Function("noop", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return beldi.Null, nil
	})
	sys.D.Function("op", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		if fill, ok := in.MapGet("fill"); ok {
			// Pre-population request: grow this SSF's own DAAL (data
			// sovereignty: only the owner can write its tables).
			for i := int64(0); i < fill.Int(); i++ {
				if err := e.Write("data", "k", beldi.Str(value16)); err != nil {
					return beldi.Null, err
				}
			}
			return beldi.Null, nil
		}
		if _, ok := in.MapGet("empty"); ok {
			return beldi.Null, nil
		}
		switch c.Op {
		case "Read":
			// Timed from the caller (below): the read's log row becomes
			// durable at the instance's next effect boundary — here the
			// return — so the body alone sees only the fetch.
			_, err := e.Read("data", "k")
			return beldi.Null, err
		case "Write":
			return beldi.Null, timed(func() error {
				return e.Write("data", "k", beldi.Str(value16))
			})
		case "CondWrite":
			return beldi.Null, timed(func() error {
				_, err := e.CondWrite("data", "k", beldi.Str(value16),
					beldi.Not(beldi.ValueEq(beldi.Str("never"))))
				return err
			})
		case "Invoke":
			return beldi.Null, timed(func() error {
				_, err := e.SyncInvoke("noop", beldi.Null)
				return err
			})
		}
		return beldi.Null, fmt.Errorf("unknown op %s", c.Op)
	}, "data")

	// Pre-populate the DAAL depth. Baseline keys are single rows, so only
	// the logged modes need depth; the single write still seeds the value
	// for all modes.
	fillWrites := 1
	if c.Mode != beldi.ModeBaseline && c.DAALRows > 1 {
		fillWrites = (c.DAALRows-1)*opRowCap + 1
	}
	if _, err := sys.D.Invoke("op", beldi.Fields(beldi.F("fill", beldi.Int(int64(fillWrites))))); err != nil {
		return fail(err)
	}

	// Warm the op function (cold start + first-row setup), then measure
	// sequential low-load operations.
	if _, err := sys.D.Invoke("op", beldi.Null); err != nil {
		return fail(err)
	}
	h.Reset()
	// A read is priced to durability (fetch + its share of the read-log
	// flush): the whole instance is timed and the empty instance's median —
	// intent logging, done-marking, the platform hop — subtracted, the same
	// calibration Costs applies to op counts.
	invoke := func(in beldi.Value) func() error {
		return func() error {
			_, err := sys.D.Invoke("op", in)
			return err
		}
	}
	var envelope time.Duration
	run := invoke(beldi.Null)
	if c.Op == "Read" {
		empty := invoke(beldi.Fields(beldi.F("empty", beldi.BoolVal(true))))
		for i := 0; i < c.Ops; i++ {
			if err := timed(empty); err != nil {
				return fail(err)
			}
		}
		envelope = h.Median()
		h.Reset()
		run = func() error { return timed(invoke(beldi.Null)) }
	}
	for i := 0; i < c.Ops; i++ {
		if err := run(); err != nil {
			return fail(err)
		}
	}
	return Fig13Row{Op: c.Op, Mode: c.Mode, Median: h.Median() - envelope, P99: h.P99() - envelope}, nil
}
