package sim

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/storage"
)

// StoreFaults is a fault schedule for the storage boundary, shared by every
// Backend wrapper of one simulation. Delays are virtual-time sleeps taken
// before the operation applies, so a delayed operation from one task lands
// after operations other tasks issued later — seeded reordering without
// breaking per-task program order (which real linearizable stores preserve
// too: one client's operations are issued one at a time).
//
// Generic delays must stay well under the protocol's synchrony bound T:
// an operation delayed past the GC horizon breaks Beldi's own §5
// assumption, and even correct code then fails exactly-once audits — that
// is a genuine limitation of the protocol, not a bug the sweep should
// report. LateDone deliberately crosses the horizon, but only for intent
// completions, whose existence guard makes late arrival safe.
type StoreFaults struct {
	// DelayProb is the per-operation probability of a delay.
	DelayProb float64
	// MaxDelay bounds each injected delay; keep it under T/2.
	MaxDelay time.Duration
	// LateDone, when non-nil, turns intent-completion updates (those
	// core.MarksIntentDone reports) into in-flight writes: the
	// issuer is acked immediately and the update applies on a detached task
	// far past the GC horizon — the zombie write whose late arrival the
	// markIntentDone existence guard must neutralize. The issuer must NOT
	// stall, because an instance stalled past the synchrony bound T may
	// legally re-execute its remaining steps under fresh identities (§5);
	// only the write itself is late, exactly like a network-delayed RPC
	// from a worker that may already be dead.
	LateDone *LateDone
	// Wake, when non-nil, arms commit-stream push for every wrapper sharing
	// this schedule — the wrappers become storage.Watchers — and perturbs
	// the wakeups with seeded drops, delays and duplicates; see wake.go.
	// When nil, Watch reports no push support and consumers poll, exactly
	// as before push existed.
	Wake *WakeFaults
}

// LateDone configures intent-completion delays; see StoreFaults.LateDone.
type LateDone struct {
	// MinDelay and MaxDelay bound the injected delay; set them to a few
	// multiples of the protocol's T so the completion lands after the
	// intent has been garbage-collected.
	MinDelay, MaxDelay time.Duration
}

// Backend wraps a storage.Backend for one simulated process: every data
// operation is a scheduling point (the wrapper yields or sleeps before
// applying it), is noted into the scheduler's trace hash, and is subject to
// the shared StoreFaults. Wrap each worker's view of the shared store so
// process-tagged traces make failures readable.
type Backend struct {
	storage.Calls // the typed data calls, each one Do

	inner  storage.Doer
	s      *Scheduler
	proc   string
	faults *StoreFaults
}

// WrapBackend returns proc's fault-injected view of inner under s. faults
// may be nil for pure interleaving without delays.
func WrapBackend(inner storage.Backend, s *Scheduler, proc string, faults *StoreFaults) *Backend {
	b := &Backend{inner: storage.DoerOf(inner), s: s, proc: proc, faults: faults}
	b.Calls = storage.Calls{Doer: b}
	return b
}

// step is the scheduling point every operation passes through.
func (b *Backend) step(op, table string) {
	b.s.Note(op + " " + table + " @" + b.proc)
	if d := b.delay(); d > 0 {
		b.s.Note(fmt.Sprintf("delay %s %s", table, d))
		b.s.Sleep(d)
		return
	}
	b.s.Yield()
}

// delay draws the operation's injected delay, 0 for none.
func (b *Backend) delay() time.Duration {
	f := b.faults
	if f != nil && f.DelayProb > 0 && f.MaxDelay > 0 && b.s.rng.Float64() < f.DelayProb {
		return time.Duration(b.s.rng.Int63n(int64(f.MaxDelay))) + time.Microsecond
	}
	return 0
}

// CreateTable implements storage.Backend.
func (b *Backend) CreateTable(schema storage.Schema) error {
	b.step("CreateTable", schema.Name)
	return b.inner.CreateTable(schema)
}

// DeleteTable implements storage.Backend.
func (b *Backend) DeleteTable(name string) error {
	b.step("DeleteTable", name)
	return b.inner.DeleteTable(name)
}

// TableNames implements storage.Backend (no scheduling point: metadata).
func (b *Backend) TableNames() []string { return b.inner.TableNames() }

// TableShards implements storage.Backend (no scheduling point: metadata).
func (b *Backend) TableShards(name string) (int, error) { return b.inner.TableShards(name) }

// TableSchema implements storage.Backend (no scheduling point: metadata).
func (b *Backend) TableSchema(name string) (storage.Schema, error) { return b.inner.TableSchema(name) }

// TableBytes implements storage.Backend (no scheduling point: metadata).
func (b *Backend) TableBytes(name string) (int, error) { return b.inner.TableBytes(name) }

// TableItemCount implements storage.Backend (no scheduling point: metadata).
func (b *Backend) TableItemCount(name string) (int, error) { return b.inner.TableItemCount(name) }

// Do implements storage.Doer: every data op is one scheduling point, noted
// as the typed call it stands for ("Get t @p", "QueryIndex t @p", "Tx a,b
// @p"), and every write that commits wakes the rows it wrote.
func (b *Backend) Do(op storage.Op) (storage.Result, error) {
	if f := b.faults; op.Kind == dynamo.OpUpdate && f != nil && f.LateDone != nil && core.MarksIntentDone(op.Table, op.Updates) {
		b.lateDone(op, f.LateDone)
		return storage.Result{}, nil
	}
	table := op.Table
	if op.Kind == dynamo.OpTxWrite {
		tables := make([]string, 0, len(op.Tx))
		for _, w := range op.Tx {
			tables = append(tables, w.Table)
		}
		table = strings.Join(tables, ",")
	}
	b.step(callName(&op), table)
	r, err := b.inner.Do(op)
	if op.Kind == dynamo.OpUpdate {
		b.debug("upd", op.Table, op.Key, err, op.Updates)
	}
	if err != nil {
		return r, err
	}
	var one [1]storage.TxOp
	for _, w := range op.TxOps(&one) {
		switch {
		case w.Check:
		case w.Put != nil:
			b.wakeForItem(w.Table, w.Put)
		default:
			b.wake(w.Table, w.Key.Hash)
		}
	}
	return r, nil
}

// callName names the typed call op stands for.
func callName(op *storage.Op) string {
	switch {
	case op.Kind == dynamo.OpGet && op.Opts.Projection != nil:
		return "GetProj"
	case op.Kind == dynamo.OpQuery && op.Index != "":
		return "QueryIndex"
	case op.Kind == dynamo.OpTxWrite:
		return "Tx"
	}
	name := op.Kind.String()
	return strings.ToUpper(name[:1]) + name[1:]
}

// lateDone turns an intent-completion update into an in-flight write: the
// issuer is acked at once and the update applies on a detached task after
// the configured delay (see StoreFaults.LateDone).
func (b *Backend) lateDone(op storage.Op, late *LateDone) {
	span := late.MaxDelay - late.MinDelay
	d := late.MinDelay
	if span > 0 {
		d += time.Duration(b.s.rng.Int63n(int64(span)))
	}
	b.s.Note(fmt.Sprintf("latedone %s %s", op.Table, d))
	// The in-flight write is deliberately NOT proc-tagged: a kill stops
	// the process, not a packet already in the network. The guard may
	// rightly refuse the apply (intent already collected) — that is the
	// scenario under test, so the error is dropped.
	b.s.Go(TaskOpts{Name: "latedone@" + b.proc}, func() {
		b.s.Sleep(d)
		b.inner.Do(op) //nolint:errcheck
	})
	b.s.Yield()
}

// debug prints store traffic for tables matching the SIM_DEBUG_TABLE
// substring — the low-tech lens OPERATIONS.md's seed-replay recipe points
// at. It never touches scheduler state, so arming it cannot perturb a
// replay.
func (b *Backend) debug(op, table string, key storage.Key, err error, updates []storage.Update) {
	if debugTable == "" || !strings.Contains(table, debugTable) {
		return
	}
	name := "?"
	if b.s.current != nil {
		name = b.s.current.Name
	}
	fmt.Printf("DBG %8s %-14s %s %s key=%v err=%v", b.s.Now().Sub(epoch), name, op, table, key, err)
	for _, u := range updates {
		fmt.Printf(" [%v %s.%s=%v]", u.Kind, u.Path.Attr, u.Path.MapKey, u.Value)
	}
	fmt.Println()
}

var debugTable = os.Getenv("SIM_DEBUG_TABLE")

// Fence implements storage.Fencer by delegation when the wrapped store is
// itself a Fencer (the speculation overlay sits beneath this wrapper in the
// spec scenario): the fence is one scheduling point, and the delegated
// flush runs atomically inside it. Keeping the overlay under the wrapper is
// what makes its real mutex safe here — no task can park while holding it,
// so a contending task never blocks the baton (the deadlock a wrapped-
// overlay-on-top arrangement exhibited under rare schedules). For every
// other inner store Fence is a free no-op with no scheduling point, leaving
// those scenarios' schedules untouched.
func (b *Backend) Fence() error {
	f, ok := b.inner.(storage.Fencer)
	if !ok {
		return nil
	}
	b.step("Fence", "fence")
	return f.Fence()
}

// Metrics implements storage.Backend (no scheduling point: counters).
func (b *Backend) Metrics() *storage.Metrics { return b.inner.Metrics() }

var (
	_ storage.Backend = (*Backend)(nil)
	_ storage.Doer    = (*Backend)(nil)
)
