package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

// fixture bundles a store, platform and runtimes for core tests. The
// store comes from the backend matrix (storagetest.Open): BELDI_BACKEND=wal
// runs every core test — crash sweeps included — against the durable
// walstore backend.
type fixture struct {
	t     *testing.T
	store storage.Backend
	plat  *platform.Platform
	rts   map[string]*Runtime
	mode  Mode
	cfg   Config
	plans platform.Plans
	held  heldRuns
	clk   clock.Clock // the runtimes'; nil is the wall clock
}

// heldRuns is the fixture platform's AsyncDispatch: while a test holds it,
// every asynchronous fire is kept for the test to run, so a run's store ops
// never land inside another step's measurement; otherwise each runs on its
// own goroutine, as the platform's default does. A held run must be run
// before the platform drains.
type heldRuns struct {
	mu      sync.Mutex
	holding bool
	runs    []queuedRun
}

// queuedRun is one held asynchronous fire.
type queuedRun func()

func (h *heldRuns) dispatch(run func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.holding {
		h.runs = append(h.runs, run)
		return
	}
	go run()
}

// hold keeps every asynchronous fire from now until the next take.
func (h *heldRuns) hold() {
	h.mu.Lock()
	h.holding = true
	h.mu.Unlock()
}

// take returns the held fires and stops holding.
func (h *heldRuns) take() []queuedRun {
	h.mu.Lock()
	defer h.mu.Unlock()
	runs := h.runs
	h.runs, h.holding = nil, false
	return runs
}

type fixtureOpt func(*fixture)

func withMode(m Mode) fixtureOpt             { return func(f *fixture) { f.mode = m } }
func withConfig(c Config) fixtureOpt         { return func(f *fixture) { f.cfg = c } }
func withStore(s storage.Backend) fixtureOpt { return func(f *fixture) { f.store = s } }
func withClock(c clock.Clock) fixtureOpt     { return func(f *fixture) { f.clk = c } }
func withFaults(p platform.FaultPlan) fixtureOpt {
	return func(f *fixture) { f.plans = append(f.plans, p) }
}

func newFixture(t *testing.T, opts ...fixtureOpt) *fixture {
	t.Helper()
	f := &fixture{
		t:     t,
		store: storagetest.Open(t),
		rts:   make(map[string]*Runtime),
		mode:  ModeBeldi,
		cfg:   Config{RowCap: 4, T: 50 * time.Millisecond, ICMinAge: time.Millisecond},
	}
	for _, o := range opts {
		o(f)
	}
	var faults platform.FaultPlan // none unless asked for, as in a deployment
	if len(f.plans) > 0 {
		faults = f.plans
	}
	f.plat = platform.New(platform.Options{
		ConcurrencyLimit: 10000,
		IDs:              &uuid.Seq{Prefix: "req"},
		Faults:           faults,
		AsyncDispatch:    f.held.dispatch,
	})
	return f
}

// fn registers an SSF with its data tables.
func (f *fixture) fn(name string, body Body, tables ...string) *Runtime {
	f.t.Helper()
	rt, err := NewRuntime(RuntimeOptions{
		Function: name,
		Store:    f.store,
		Platform: f.plat,
		Mode:     f.mode,
		Config:   f.cfg,
		IDs:      &uuid.Seq{Prefix: name},
		Clock:    f.clk,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	for _, tbl := range tables {
		if err := rt.CreateDataTable(tbl); err != nil {
			f.t.Fatal(err)
		}
	}
	Register(rt, body)
	f.rts[name] = rt
	return rt
}

// invoke calls a function as an external client.
func (f *fixture) invoke(name string, input Value) (Value, error) {
	return f.plat.Invoke(name, ClientEnvelope(input))
}

// invokeAs launches instance id of fn with input, as a client re-driving a
// request it knows the id of does: a launch that carries its instance id
// writes its intent row on entry (ensureIntent), so a body that then fails or
// is killed leaves the row pending for the collectors, and the body's first
// effect pays no intent put.
func (f *fixture) invokeAs(name, id string, input Value) (Value, error) {
	return f.plat.Invoke(name, RetryEnvelope(id, "", input))
}

// invokeAsClient calls a function as a client that retries a workflow its
// entry left no trace of: an entry killed before its first effect boundary
// wrote no intent row, so no collector will finish it, and the client's retry
// is a new request with a new id. A failed call whose entry wrote its row is
// the collectors' to finish, and its error is returned as it is.
func (f *fixture) invokeAsClient(name string, input Value) (Value, error) {
	f.t.Helper()
	before := f.intentRows(name)
	out, err := f.invoke(name, input)
	if err != nil && f.intentRows(name) == before {
		return f.invoke(name, input)
	}
	return out, err
}

// intentRows counts the rows of fn's intent table.
func (f *fixture) intentRows(fn string) int {
	f.t.Helper()
	n, err := f.store.TableItemCount(f.rts[fn].intentTable)
	if err != nil {
		f.t.Fatal(err)
	}
	return n
}

// mustInvoke fails the test on error.
func (f *fixture) mustInvoke(name string, input Value) Value {
	f.t.Helper()
	out, err := f.invoke(name, input)
	if err != nil {
		f.t.Fatalf("invoke %s: %v", name, err)
	}
	return out
}

// collectAll runs every runtime's IC once (restarts go through the platform
// asynchronously; Drain waits for them).
func (f *fixture) collectAll() int {
	f.t.Helper()
	total := 0
	for _, rt := range f.rts {
		n, err := rt.RunIntentCollector()
		if err != nil {
			f.t.Fatalf("ic %s: %v", rt.fn, err)
		}
		total += n
	}
	f.plat.Drain()
	return total
}

// recoverAll drives intent collection to quiescence (no restarts issued),
// bounding the number of rounds. Each round first waits out the collectors'
// ICMinAge, so that a round restarting nothing means nothing is pending, not
// that the last launch was too recent to restart.
func (f *fixture) recoverAll() {
	f.t.Helper()
	wait := 2 * time.Millisecond
	for _, rt := range f.rts {
		wait = max(wait, rt.cfg.ICMinAge+time.Millisecond)
	}
	for round := 0; round < 50; round++ {
		time.Sleep(wait)
		if f.collectAll() == 0 {
			return
		}
	}
	f.t.Fatal("intent collection did not quiesce in 50 rounds")
}

// gcAll runs every runtime's GC once.
func (f *fixture) gcAll() GCStats {
	f.t.Helper()
	var total GCStats
	for _, rt := range f.rts {
		st, err := rt.RunGarbageCollector()
		if err != nil {
			f.t.Fatalf("gc %s: %v", rt.fn, err)
		}
		total.Recycled += st.Recycled
		total.LogRowsDeleted += st.LogRowsDeleted
		total.RowsMarked += st.RowsMarked
		total.RowsDisconnected += st.RowsDisconnected
		total.RowsDeleted += st.RowsDeleted
		total.IntentsDeleted += st.IntentsDeleted
	}
	return total
}

// readData reads an item's current committed value straight from storage.
func (f *fixture) readData(fn, table, key string) Value {
	f.t.Helper()
	rt := f.rts[fn]
	if f.mode == ModeBaseline {
		it, ok, err := f.store.Get(rt.dataTable(table), dynamo.HK(dynamo.S(key)))
		if err != nil {
			f.t.Fatalf("get %s/%s/%s: %v", fn, table, key, err)
		}
		if !ok {
			return dynamo.Null
		}
		return it[attrValue]
	}
	val, _, _, err := rt.layer().stateRead(table, key)
	if err != nil {
		f.t.Fatalf("stateRead %s/%s/%s: %v", fn, table, key, err)
	}
	return val
}

// counterBody increments "counter"/key by one, non-atomically (read then
// write) — the canonical exactly-once victim.
func counterBody(e *Env, input Value) (Value, error) {
	key := input.Str()
	if key == "" {
		key = "k"
	}
	v, err := e.Read("counter", key)
	if err != nil {
		return dynamo.Null, err
	}
	next := dynamo.NInt(v.Int() + 1)
	if err := e.Write("counter", key, next); err != nil {
		return dynamo.Null, err
	}
	return next, nil
}

// intentDone reads an intent's completion state without decoding its
// envelope (an inspection aid for tests).
func (rt *Runtime) intentDone(id string) (exists, done bool, ret Value, err error) {
	it, ok, err := rt.store.Get(rt.intentTable, dynamo.HK(dynamo.S(id)))
	if err != nil || !ok {
		return false, false, dynamo.Null, err
	}
	return true, it[attrDone].BoolVal(), it[attrRet], nil
}
