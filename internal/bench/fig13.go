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

// Fig13Options configure the microbenchmark.
type Fig13Options struct {
	// DAALRows pre-populates the key's linked DAAL (20 for Fig 13, 5 for
	// Fig 25).
	DAALRows int
	// Ops is the number of measured operations per cell. It must stay at
	// or below RowCap so measurement itself does not grow the DAAL by more
	// than one row. 0 means 60.
	Ops int
	// RowCap is the per-row log capacity; large enough that prefill, not
	// measurement, sets the depth. 0 means 64.
	RowCap int
	// Scale compresses simulated latency.
	Scale float64
	Seed  int64
}

func (o Fig13Options) withDefaults() Fig13Options {
	if o.DAALRows == 0 {
		o.DAALRows = 20
	}
	if o.Ops == 0 {
		o.Ops = 60
	}
	if o.RowCap == 0 {
		o.RowCap = 64
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// value16 is the 16-byte value of §7.3.
const value16 = "0123456789abcdef"

// Fig13 runs the microbenchmark and returns rows grouped by operation then
// mode (Baseline, Beldi, CrossTable), matching the figure's bar order.
func Fig13(opts Fig13Options) ([]Fig13Row, error) {
	opts = opts.withDefaults()
	ops := []string{"Read", "Write", "CondWrite", "Invoke"}
	modes := []beldi.Mode{beldi.ModeBaseline, beldi.ModeBeldi, beldi.ModeCrossTable}
	var out []Fig13Row
	for _, op := range ops {
		for _, mode := range modes {
			med, p99, err := fig13Cell(op, mode, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: fig13 %s/%s: %w", op, ModeLabel(mode), err)
			}
			out = append(out, Fig13Row{Op: op, Mode: mode, Median: med, P99: p99})
		}
	}
	return out, nil
}

func fig13Cell(op string, mode beldi.Mode, opts Fig13Options) (med, p99 time.Duration, err error) {
	sys := NewSystem(SystemOptions{
		Mode: mode, Scale: opts.Scale, Seed: opts.Seed,
		Concurrency: 10000,
		Config:      beldi.Config{RowCap: opts.RowCap, T: time.Hour},
	})
	h := &hist.Histogram{}
	timed := func(f func() error) error {
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		h.Record(time.Since(t0))
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
		switch op {
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
		return beldi.Null, fmt.Errorf("unknown op %s", op)
	}, "data")

	// Pre-populate the DAAL depth. Baseline keys are single rows, so only
	// the logged modes need depth; the single write still seeds the value
	// for all modes.
	fillWrites := 1
	if mode != beldi.ModeBaseline && opts.DAALRows > 1 {
		fillWrites = (opts.DAALRows-1)*opts.RowCap + 1
	}
	if _, err := sys.D.Invoke("op", beldi.Fields(beldi.F("fill", beldi.Int(int64(fillWrites))))); err != nil {
		return 0, 0, err
	}

	// Warm the op function (cold start + first-row setup), then measure
	// sequential low-load operations.
	if _, err := sys.D.Invoke("op", beldi.Null); err != nil {
		return 0, 0, err
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
	if op == "Read" {
		empty := invoke(beldi.Fields(beldi.F("empty", beldi.BoolVal(true))))
		for i := 0; i < opts.Ops; i++ {
			if err := timed(empty); err != nil {
				return 0, 0, err
			}
		}
		envelope = h.Median()
		h.Reset()
		run = func() error { return timed(invoke(beldi.Null)) }
	}
	for i := 0; i < opts.Ops; i++ {
		if err := run(); err != nil {
			return 0, 0, err
		}
	}
	return h.Median() - envelope, h.P99() - envelope, nil
}
