package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// The traced pass wraps the storage.Backend seams from outside: one
// decorator on the backend handed to DeploymentOptions.Store (the "core
// seam", spans named storage.<op>) and, on the remote workloads, a second
// one on the backend handed to remote.NewServer (the "server seam", spans
// named walstore.<op>). Spans are kept in memory and analysed after the
// episode; nothing inside the program is instrumented.

// opClass groups Backend calls into the four classes the ledger reports.
type opClass uint8

const (
	opGet      opClass = iota // Get, GetProj
	opQuery                   // Query, QueryIndex, Scan
	opUpdate                  // Put, Update, Delete
	opTransact                // TransactWrite
	opAdmin                   // table management and size probes
	opClasses
)

var opClassNames = [opClasses]string{"get", "query", "update", "transact", "admin"}

// span is one timed interval, in nanoseconds since the recorder's epoch.
type span struct {
	op         opClass
	start, end int64
}

// recorder collects the spans of one seam. Safe for concurrent use: the
// fan-out workload calls the backend from many goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (r *recorder) done(op opClass, start time.Time) {
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{op: op, start: int64(start.Sub(r.epoch)), end: int64(end)})
	r.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and seeding traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// take returns the recorded spans sorted by start time.
func (r *recorder) take() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// tracedBackend times every Backend call into rec and forwards it
// unchanged. It forwards the optional capabilities storage.Watcher and
// storage.Fencer, so the traced wiring takes the same code paths as the
// untraced one, and shares the inner Metrics, so counts are identical with
// and without it. Build one with traceBackend.
type tracedBackend struct {
	inner storage.Backend
	rec   *recorder
}

// tracedDynamoBackend is a tracedBackend over a backend that is (or wraps)
// an in-memory dynamo store: it forwards DynamoStore() too, keeping
// storage.AsDynamo working through the decorator. A separate type because
// AsDynamo treats the mere presence of the method as a promise of a store.
type tracedDynamoBackend struct {
	*tracedBackend
	store *dynamo.Store
}

// DynamoStore implements the accessor storage.AsDynamo probes for.
func (t *tracedDynamoBackend) DynamoStore() *dynamo.Store { return t.store }

// traceBackend decorates inner, forwarding every optional capability inner
// has.
func traceBackend(inner storage.Backend, rec *recorder) storage.Backend {
	t := &tracedBackend{inner: inner, rec: rec}
	if store, ok := storage.AsDynamo(inner); ok && store != nil {
		return &tracedDynamoBackend{tracedBackend: t, store: store}
	}
	return t
}

var (
	_ storage.Backend = (*tracedBackend)(nil)
	_ storage.Watcher = (*tracedBackend)(nil)
	_ storage.Fencer  = (*tracedBackend)(nil)
)

func (t *tracedBackend) CreateTable(schema storage.Schema) error {
	defer t.rec.done(opAdmin, time.Now())
	return t.inner.CreateTable(schema)
}

func (t *tracedBackend) DeleteTable(name string) error {
	defer t.rec.done(opAdmin, time.Now())
	return t.inner.DeleteTable(name)
}

func (t *tracedBackend) TableNames() []string {
	defer t.rec.done(opAdmin, time.Now())
	return t.inner.TableNames()
}

func (t *tracedBackend) TableShards(name string) (int, error) {
	defer t.rec.done(opAdmin, time.Now())
	return t.inner.TableShards(name)
}

func (t *tracedBackend) TableSchema(name string) (storage.Schema, error) {
	defer t.rec.done(opAdmin, time.Now())
	return t.inner.TableSchema(name)
}

func (t *tracedBackend) TableBytes(name string) (int, error) {
	defer t.rec.done(opAdmin, time.Now())
	return t.inner.TableBytes(name)
}

func (t *tracedBackend) TableItemCount(name string) (int, error) {
	defer t.rec.done(opAdmin, time.Now())
	return t.inner.TableItemCount(name)
}

func (t *tracedBackend) Get(table string, key storage.Key) (storage.Item, bool, error) {
	defer t.rec.done(opGet, time.Now())
	return t.inner.Get(table, key)
}

func (t *tracedBackend) GetProj(table string, key storage.Key, proj []storage.Path) (storage.Item, bool, error) {
	defer t.rec.done(opGet, time.Now())
	return t.inner.GetProj(table, key, proj)
}

func (t *tracedBackend) Put(table string, item storage.Item, cond storage.Cond) error {
	defer t.rec.done(opUpdate, time.Now())
	return t.inner.Put(table, item, cond)
}

func (t *tracedBackend) Update(table string, key storage.Key, cond storage.Cond, updates ...storage.Update) error {
	defer t.rec.done(opUpdate, time.Now())
	return t.inner.Update(table, key, cond, updates...)
}

func (t *tracedBackend) Delete(table string, key storage.Key, cond storage.Cond) error {
	defer t.rec.done(opUpdate, time.Now())
	return t.inner.Delete(table, key, cond)
}

func (t *tracedBackend) Query(table string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	defer t.rec.done(opQuery, time.Now())
	return t.inner.Query(table, hash, opts)
}

func (t *tracedBackend) QueryIndex(table, index string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	defer t.rec.done(opQuery, time.Now())
	return t.inner.QueryIndex(table, index, hash, opts)
}

func (t *tracedBackend) Scan(table string, opts storage.QueryOpts) ([]storage.Item, error) {
	defer t.rec.done(opQuery, time.Now())
	return t.inner.Scan(table, opts)
}

func (t *tracedBackend) TransactWrite(ops []storage.TxOp) error {
	defer t.rec.done(opTransact, time.Now())
	return t.inner.TransactWrite(ops)
}

func (t *tracedBackend) Metrics() *storage.Metrics { return t.inner.Metrics() }

// Watch forwards to the inner backend's commit stream; like the pipeline
// overlay it reports an error when the inner backend cannot push, which the
// storage.Watch probe turns into the poll fallback.
func (t *tracedBackend) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	w, ok := t.inner.(storage.Watcher)
	if !ok {
		return nil, fmt.Errorf("bench: traced backend: %T does not support Watch", t.inner)
	}
	return w.Watch(table, hash)
}

// Fence forwards to the inner backend (a no-op on synchronous backends).
func (t *tracedBackend) Fence() error { return storage.Fence(t.inner) }

// --- analysis ---------------------------------------------------------------

// traceSummary is what one traced episode contributes to the ledger. Times
// are sums over the episode's workflows, in nanoseconds.
type traceSummary struct {
	workflows  int
	workflowNs int64          // Σ workflow span
	coreNs     int64          // Σ part of each workflow covered by core-seam spans
	serverNs   int64          // Σ part of each workflow covered by server-seam spans
	opCount    [opClasses]int // core-seam spans attributed to a workflow, by class
	opDurs     []int64        // their durations
	background int            // core-seam spans that started outside every workflow
}

// covered returns how much of [lo, hi) the spans cover, counting overlapping
// spans once: a layer's self time is its span minus the part of that
// interval its child spans cover, so concurrent children (the fan-out
// workload) must not be counted twice. spans are sorted by start.
func covered(spans []span, lo, hi int64) int64 {
	var total int64
	end := lo
	for _, s := range spans {
		a, b := max(s.start, end), min(s.end, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// summarize attributes seam spans to workflow spans. A seam span belongs to
// the workflow in flight when it starts: with one closed-loop client at most
// one workflow is in flight, so on the three sequential workloads this is
// time containment; on the fan-out workload, where mappers run beside the
// driver, it is attribution by interval overlap, and spans that outlive
// their workflow are clipped to it.
func summarize(workflows, core, server []span) traceSummary {
	sum := traceSummary{workflows: len(workflows)}
	ci, si := 0, 0
	for _, w := range workflows {
		sum.workflowNs += w.end - w.start
		for ci < len(core) && core[ci].start < w.start {
			sum.background++
			ci++
		}
		c0 := ci
		for ci < len(core) && core[ci].start < w.end {
			sum.opCount[core[ci].op]++
			sum.opDurs = append(sum.opDurs, core[ci].end-core[ci].start)
			ci++
		}
		sum.coreNs += covered(core[c0:ci], w.start, w.end)
		for si < len(server) && server[si].start < w.start {
			si++
		}
		s0 := si
		for si < len(server) && server[si].start < w.end {
			si++
		}
		sum.serverNs += covered(server[s0:si], w.start, w.end)
	}
	sum.background += len(core) - ci
	return sum
}

func (a *traceSummary) add(b traceSummary) {
	a.workflows += b.workflows
	a.workflowNs += b.workflowNs
	a.coreNs += b.coreNs
	a.serverNs += b.serverNs
	for i := range a.opCount {
		a.opCount[i] += b.opCount[i]
	}
	a.opDurs = append(a.opDurs, b.opDurs...)
	a.background += b.background
}

// traceFile is the on-disk form of one traced episode (trace-<workload>.json).
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Unit     string      `json:"unit"`
	Spans    []traceSpan `json:"spans"`
}

// traceSpan is one span of the file: ID is unique in the file, Parent the
// span that caused it (0 for a workflow, the workflow for a storage.* span,
// the enclosing storage.* span for a walstore.* span), Workflow the
// identifier every span of one request shares (-1 for background traffic).
type traceSpan struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workflow int    `json:"workflow"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// writeTrace renders one traced episode as a span tree and writes it.
func writeTrace(dir, workload string, seed int64, workflows, core, server []span) error {
	tf := traceFile{Workload: workload, Seed: seed, Unit: "ns since episode start"}
	id := 0
	next := func() int { id++; return id }
	wfID := make([]int, len(workflows))
	for i, w := range workflows {
		wfID[i] = next()
		tf.Spans = append(tf.Spans, traceSpan{ID: wfID[i], Workflow: i, Name: "workflow", Start: w.start, End: w.end})
	}
	// owner finds the workflow in flight at t (-1 when none).
	owner := func(t int64) int {
		i := sort.Search(len(workflows), func(i int) bool { return workflows[i].end > t })
		if i < len(workflows) && workflows[i].start <= t {
			return i
		}
		return -1
	}
	coreID := make([]int, len(core))
	for i, s := range core {
		coreID[i] = next()
		ts := traceSpan{ID: coreID[i], Workflow: owner(s.start), Name: "storage." + opClassNames[s.op], Start: s.start, End: s.end}
		if ts.Workflow >= 0 {
			ts.Parent = wfID[ts.Workflow]
		}
		tf.Spans = append(tf.Spans, ts)
	}
	for _, s := range server {
		ts := traceSpan{ID: next(), Workflow: owner(s.start), Name: "walstore." + opClassNames[s.op], Start: s.start, End: s.end}
		// The server seam exists only on the sequential workloads, where at
		// most one core-seam call is in flight: the one that caused this span
		// is the latest to start before it.
		if j := sort.Search(len(core), func(j int) bool { return core[j].start > s.start }) - 1; j >= 0 && core[j].end >= s.end {
			ts.Parent = coreID[j]
		}
		tf.Spans = append(tf.Spans, ts)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
