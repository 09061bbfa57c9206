package bench

import (
	"sort"
	"time"

	"repro/beldi"
)

// §7.3 "Other costs": the storage and network overhead Beldi adds on top of
// the values themselves. The paper reports 20–36 bytes of log+metadata
// stored per operation, ~2 KB of extra scan traffic per read against a
// 20-row DAAL, and one extra scan+write per read / one extra scan per write
// / one read and two writes per invocation.

// CostsReport is the measured accounting.
type CostsReport struct {
	// StoredBytesPerOp is the net storage growth per write. Beldi's write
	// appends a log entry holding the 16-byte value, so its figure is what
	// it stores beyond the value; the baseline's write overwrites the value
	// in place, so its figure is the growth as it is: 0 bytes of log.
	StoredBytesPerOpBeldi    float64
	StoredBytesPerOpBaseline float64
	// ReadBytesBeldi/Baseline are response bytes for one read against a
	// 20-row DAAL vs a single-row table.
	ReadBytesBeldi    int64
	ReadBytesBaseline int64
	// StoreOpsPerRead/Write/Invoke are database round trips per API call.
	StoreOpsPerReadBeldi      float64
	StoreOpsPerReadBaseline   float64
	StoreOpsPerWriteBeldi     float64
	StoreOpsPerWriteBaseline  float64
	StoreOpsPerInvokeBeldi    float64
	StoreOpsPerInvokeBaseline float64
	// DAALBytes20Rows is the 20-row DAAL's storage footprint.
	DAALBytes20Rows int
	// OpsPerReadAtK is the Beldi round trips per read when one instance
	// issues K reads back to back: the read log is group-committed, so K
	// fetches share one flush at the instance's next effect boundary and
	// the cost per read is (K+1)/K — 2 for a lone read, approaching 1.
	OpsPerReadAtK []KReadsRow
	// OpsPerCallAtK is the Beldi round trips of one SyncInvoke of a callee
	// that issues K reads, by how the callee ends. An intent row is an
	// effect's bookkeeping: a callee that returns effect-free writes none and
	// the call costs the caller's invoke-log insert, the K fetches and the
	// callback (2+K); one that ends in a write pays in full — intent row,
	// write and done mark on top, plus the flush of its K read-log rows
	// (5+K, +1 when K ≥ 1). The write is one head-first update while the
	// callee's one key fits its head row, and query + update once the key
	// has grown past it: from K = 1 on, after more writes than RowCap (+1).
	OpsPerCallAtK []KCallRow
}

// KReadsRow is one row of CostsReport.OpsPerReadAtK.
type KReadsRow struct {
	K          int
	OpsPerRead float64
}

// KCallRow is one row of CostsReport.OpsPerCallAtK.
type KCallRow struct {
	K                  int
	EffectFree, Writes float64
}

// costsCalleeReads are the reads-per-callee points of OpsPerCallAtK.
var costsCalleeReads = []int{0, 1, 8}

// costsReadBatches are the reads-per-instance points of OpsPerReadAtK.
var costsReadBatches = []int{1, 2, 4, 8, 16}

// Costs measures the report.
func Costs() (*CostsReport, error) {
	const ops = 50 // the sample size of every measurement
	rep := &CostsReport{}

	for _, mode := range []beldi.Mode{beldi.ModeBeldi, beldi.ModeBaseline} {
		sys, _ := virtualSystem(mode, 1, beldi.Config{RowCap: 64, T: time.Hour})
		kind := "noop"
		sys.D.Function(kind, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			return beldi.Null, nil
		})
		var doOp string
		reads := 1
		calleeWrites := false
		sys.D.Function("callee", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			for i := 0; i < reads; i++ {
				if _, err := e.Read("data", "k"); err != nil {
					return beldi.Null, err
				}
			}
			if calleeWrites {
				return beldi.Null, e.Write("data", "k", beldi.Str(value16))
			}
			return beldi.Null, nil
		}, "data")
		sys.D.Function("op", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			switch doOp {
			case "read":
				for i := 0; i < reads; i++ {
					if _, err := e.Read("data", "k"); err != nil {
						return beldi.Null, err
					}
				}
				return beldi.Null, nil
			case "write":
				return beldi.Null, e.Write("data", "k", beldi.Str(value16))
			case "invoke":
				_, err := e.SyncInvoke(kind, beldi.Null)
				return beldi.Null, err
			case "call":
				_, err := e.SyncInvoke("callee", beldi.Null)
				return beldi.Null, err
			case "fill":
				for i := 0; i < (20-1)*64+1; i++ {
					if err := e.Write("data", "k", beldi.Str(value16)); err != nil {
						return beldi.Null, err
					}
				}
			}
			return beldi.Null, nil
		}, "data")

		if mode == beldi.ModeBeldi {
			doOp = "fill"
			if _, err := sys.D.Invoke("op", beldi.Null); err != nil {
				return nil, err
			}
			bytes, err := sys.Store.TableBytes(dataTableName("op", "data"))
			if err != nil {
				return nil, err
			}
			rep.DAALBytes20Rows = bytes
		} else {
			doOp = "write"
			if _, err := sys.D.Invoke("op", beldi.Null); err != nil {
				return nil, err
			}
		}

		measure := func(what string) (opsPer float64, bytesRead int64, storedPer float64, err error) {
			doOp = what
			before := sys.Store.Metrics().Snapshot()
			bytesBefore := storeBytesTotal(sys)
			for i := 0; i < ops; i++ {
				if _, err := sys.D.Invoke("op", beldi.Null); err != nil {
					return 0, 0, 0, err
				}
			}
			diff := sys.Store.Metrics().Snapshot().Sub(before)
			stored := storeBytesTotal(sys) - bytesBefore
			return float64(diff.TotalOps()) / float64(ops),
				diff.BytesRead / int64(ops),
				float64(stored) / float64(ops), nil
		}

		// Calibrate away the per-invocation envelope (intent check/log and
		// done-marking) so the figures isolate the API operations
		// themselves, like the paper's per-operation accounting.
		nopOps, _, _, err := measure("none")
		if err != nil {
			return nil, err
		}
		readOps, readBytes, _, err := measure("read")
		if err != nil {
			return nil, err
		}
		writeOps, _, writeStored, err := measure("write")
		if err != nil {
			return nil, err
		}
		invokeOps, _, _, err := measure("invoke")
		if err != nil {
			return nil, err
		}
		readOps -= nopOps
		writeOps -= nopOps
		invokeOps -= nopOps
		if mode == beldi.ModeBeldi {
			for _, k := range costsReadBatches {
				reads = k
				kOps, _, _, err := measure("read")
				if err != nil {
					return nil, err
				}
				rep.OpsPerReadAtK = append(rep.OpsPerReadAtK, KReadsRow{K: k, OpsPerRead: (kOps - nopOps) / float64(k)})
			}
			// The median call: one write in RowCap also appends a DAAL row.
			medianCall := func() (float64, error) {
				doOp = "call"
				per := make([]float64, ops)
				for i := range per {
					before := sys.Store.Metrics().Snapshot().TotalOps()
					if _, err := sys.D.Invoke("op", beldi.Null); err != nil {
						return 0, err
					}
					per[i] = float64(sys.Store.Metrics().Snapshot().TotalOps() - before)
				}
				sort.Float64s(per)
				return per[ops/2] - nopOps, nil
			}
			for _, k := range costsCalleeReads {
				row := KCallRow{K: k}
				reads = k
				calleeWrites = false
				if row.EffectFree, err = medianCall(); err != nil {
					return nil, err
				}
				calleeWrites = true
				if row.Writes, err = medianCall(); err != nil {
					return nil, err
				}
				rep.OpsPerCallAtK = append(rep.OpsPerCallAtK, row)
			}
			rep.StoreOpsPerReadBeldi = readOps
			rep.StoreOpsPerWriteBeldi = writeOps
			rep.StoreOpsPerInvokeBeldi = invokeOps
			rep.ReadBytesBeldi = readBytes
			rep.StoredBytesPerOpBeldi = writeStored - float64(len(value16))
		} else {
			rep.StoreOpsPerReadBaseline = readOps
			rep.StoreOpsPerWriteBaseline = writeOps
			rep.StoreOpsPerInvokeBaseline = invokeOps
			rep.ReadBytesBaseline = readBytes
			rep.StoredBytesPerOpBaseline = writeStored
		}
	}
	return rep, nil
}

// storeBytesTotal sums every table's footprint.
func storeBytesTotal(sys *System) int {
	total := 0
	for _, name := range sys.Store.TableNames() {
		n, err := sys.Store.TableBytes(name)
		if err == nil {
			total += n
		}
	}
	return total
}
