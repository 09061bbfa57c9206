package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/beldi"
	"repro/internal/workload"
)

// Figure 16: median response time, over a long constant-load run against a
// single key, of an SSF that performs one write — under no GC, GC with
// T = 1, 10 and 30 minutes, and the cross-table-transaction layout. The GC
// trigger fires every minute regardless of T (§7.2/§7.5: the trigger timer
// decides when the collector runs; T decides what it may reclaim). Without
// GC the linked DAAL grows without bound and the scan-based traversal
// slowly pays for it; with GC the chain stays shallow for every T, which is
// the paper's point — T matters for storage, barely for latency.
//
// Wall-clock minutes are simulated: one "paper minute" maps to a line's
// Minute of real time, preserving the write-rate : GC-period : row-capacity
// ratios that drive the figure's shape.

// Fig16Series is one line of the figure.
type Fig16Series struct {
	Label string
	// Median[i] is the median response time during simulated minute i.
	Median []time.Duration
	// Rows[i] is the target key's physical row count at the end of minute
	// i (the storage story behind §7.5's I/O remark).
	Rows []int
	// Bytes[i] is the data table's footprint at the end of minute i.
	Bytes []int
}

// GCLine is one line of Figure 16, described completely.
type GCLine struct {
	// Label names the line in the figure's header.
	Label string
	Mode  beldi.Mode
	// T is the collector's lifetime in simulated minutes; 0 runs no
	// collector.
	T int
	// Minutes is the simulated duration (60 in the paper), Minute the real
	// time per simulated minute.
	Minutes int
	Minute  time.Duration
	// Scale compresses simulated latency.
	Scale float64
	Seed  int64
}

const (
	// gcRate is the offered write load in req/s.
	gcRate = 60
	// gcRowCap keeps rows small so depth grows visibly.
	gcRowCap = 8
)

// GCLines is Figure 16: Beldi without garbage collection, with it at T = 1,
// 10 and 30 minutes, and the cross-table-transaction layout collected at
// T = 1 minute.
func GCLines(minutes int, minute time.Duration, scale float64, seed int64) []GCLine {
	line := func(label string, mode beldi.Mode, t int) GCLine {
		return GCLine{Label: label, Mode: mode, T: t, Minutes: minutes, Minute: minute, Scale: scale, Seed: seed}
	}
	lines := []GCLine{line("without GC", beldi.ModeBeldi, 0)}
	for _, t := range []int{1, 10, 30} {
		lines = append(lines, line(fmt.Sprintf("with GC (%d min)", t), beldi.ModeBeldi, t))
	}
	return append(lines, line("cross-table txn", beldi.ModeCrossTable, 1))
}

// RunGCLine runs one line on a fresh system.
func RunGCLine(l GCLine) (Fig16Series, error) {
	t := time.Hour // effectively never reclaim
	if l.T > 0 {
		t = time.Duration(l.T) * l.Minute
	}
	sys := NewSystem(SystemOptions{
		Mode: l.Mode, Scale: l.Scale, Seed: l.Seed,
		Concurrency: 10000,
		Config:      beldi.Config{RowCap: gcRowCap, T: t},
	})
	sys.D.Function("w", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return beldi.Null, e.Write("data", "k", beldi.Str(value16))
	}, "data")
	if _, err := sys.D.Invoke("w", beldi.Null); err != nil { // warm
		return Fig16Series{}, err
	}

	series := Fig16Series{Label: l.Label}
	rt := sys.D.Runtime("w")
	for min := 0; min < l.Minutes; min++ {
		res := workload.Run(workload.Options{
			Rate:     gcRate,
			Duration: l.Minute,
			Seed:     l.Seed + int64(min),
		}, func(r *rand.Rand) error {
			_, err := sys.D.Invoke("w", beldi.Null)
			return err
		})
		series.Median = append(series.Median, res.Latency.Median())

		// Minute boundary: the 1-minute GC trigger (§7.2).
		if l.T > 0 {
			if _, err := rt.RunGarbageCollector(); err != nil {
				return Fig16Series{}, err
			}
		}
		rows, err := sys.Store.TableItemCount(dataTableName("w", "data"))
		if err != nil {
			return Fig16Series{}, err
		}
		bytes, err := sys.Store.TableBytes(dataTableName("w", "data"))
		if err != nil {
			return Fig16Series{}, err
		}
		series.Rows = append(series.Rows, rows)
		series.Bytes = append(series.Bytes, bytes)
	}
	return series, nil
}

// dataTableName mirrors the runtime's physical naming (fn.data.logical).
func dataTableName(fn, logical string) string { return fn + ".data." + logical }
