// Package beldi is the public API of this Beldi reproduction: a library and
// runtime for writing fault-tolerant, transactional stateful serverless
// functions (SSFs) and composing them into workflows, after "Fault-tolerant
// and Transactional Stateful Serverless Workflows" (OSDI 2020).
//
// An SSF is an ordinary function of type Body. Writing it against Env's API
// (the paper's Figure 2: Read, Write, CondWrite, SyncInvoke, AsyncInvoke,
// Lock, Unlock, Transaction) is all it takes: the runtime wraps every
// invocation with intent logging and replay so that, even if instances
// crash at any point and are re-executed arbitrarily many times by the
// intent collector, the observable effect equals exactly one clean
// execution. Transactions span SSF boundaries with opacity isolation.
//
// A minimal SSF:
//
//	func Counter(e *beldi.Env, input beldi.Value) (beldi.Value, error) {
//		v, err := e.Read("state", "counter")
//		if err != nil {
//			return beldi.Null, err
//		}
//		next := beldi.Int(v.Int() + 1)
//		if err := e.Write("state", "counter", next); err != nil {
//			return beldi.Null, err
//		}
//		return next, nil
//	}
//
// Deployment pairs each SSF with its own database tables (data
// sovereignty), an intent collector, and a garbage collector. StartCollectors
// runs both on one loop for the whole deployment: the intent collector every
// ICMinAge and the garbage collector every T (Config; both default to T, 2 s),
// so the defaults alone finish a crashed workflow:
//
//	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat})
//	d.Function("counter", Counter, "state")
//	d.StartCollectors()
//	defer d.Stop()
//	out, err := d.Invoke("counter", beldi.Null)
//
// Three further surfaces layer on this dynamic core (see ARCHITECTURE.md,
// "API layers"):
//
//   - Context-first invocation: InvokeCtx/InvokeAppCtx (and Func.InvokeCtx)
//     carry a context.Context into Env.Context and down call chains; lock
//     retries, wait-die backoffs and promise awaits observe it, and a
//     canceled call fails with ErrCanceled while the collectors finish the
//     workflow exactly once.
//   - A typed facade: NewTable[T] / RegisterFunc[In, Out] / PromiseOf[T]
//     give compile-time-checked tables, functions and promises over the
//     structural ToValue/FromValue codec; typed and dynamic code
//     interoperate on the same state.
//   - Durable promises: Env.AsyncInvokePromise returns a Promise whose
//     result is posted into the caller's own invoke-log row of the call;
//     Promise.Await / Env.AwaitAll are logged
//     steps, so fan-out/fan-in survives crash and replay on either side.
//
// The same Body runs unchanged in three modes — ModeBeldi (the paper's
// system), ModeCrossTable (the §7.3 comparator that logs to a separate
// table with cross-table transactions), and ModeBaseline (raw operations,
// no guarantees) — which is how the evaluation figures compare them.
package beldi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/uuid"
)

// Re-exported core types. Aliases keep the public surface thin while the
// implementation lives in internal packages.
type (
	// Value is the dynamic value type flowing through inputs, outputs and
	// storage.
	Value = dynamo.Value
	// Field is one named entry of a map Value (see Fields).
	Field = dynamo.Field
	// Env is the per-instance execution context exposing Beldi's API.
	Env = core.Env
	// Body is an SSF's application logic.
	Body = core.Body
	// Mode selects Beldi / cross-table / baseline machinery.
	Mode = core.Mode
	// Config tunes protocol parameters (row capacity N, lifetime bound T,
	// the collectors' minimum restart age and paging).
	Config = core.Config
	// Runtime is one SSF's runtime (advanced use; Deployment manages these).
	Runtime = core.Runtime
	// TxnMode is a transaction phase.
	TxnMode = core.TxnMode
	// GCStats reports one garbage-collection pass.
	GCStats = core.GCStats
	// Promise is a durable handle on an asynchronously invoked SSF's result
	// (Env.AsyncInvokePromise); resolve it with Promise.Await or
	// Env.AwaitAll. Fan-out/fan-in built on promises survives crash and
	// replay on both sides with exactly-once semantics.
	Promise = core.Promise
	// Backend is the pluggable storage seam every deployment runs on: the
	// in-memory dynamo store or any durable implementation (walstore). See
	// internal/storage.
	Backend = storage.Backend
)

// Modes.
const (
	ModeBeldi      = core.ModeBeldi
	ModeCrossTable = core.ModeCrossTable
	ModeBaseline   = core.ModeBaseline
)

// Change-event payload keys: the Map entries a change handler registered
// with Deployment.OnTableChange receives as input.
const (
	ChangeEvTable    = core.ChangeEvTable
	ChangeEvKey      = core.ChangeEvKey
	ChangeEvValue    = core.ChangeEvValue
	ChangeEvFn       = core.ChangeEvFn
	ChangeEvInstance = core.ChangeEvInstance
)

// Errors.
var (
	// ErrTxnAborted reports a wait-die death or application abort; see
	// core.ErrTxnAborted.
	ErrTxnAborted = core.ErrTxnAborted
	// ErrLockUnavailable reports an exhausted lock retry budget.
	ErrLockUnavailable = core.ErrLockUnavailable
	// ErrAwaitTimeout reports a Promise.Await that exhausted its poll budget
	// before the result was posted; the intent collector retries the
	// awaiting instance later.
	ErrAwaitTimeout = core.ErrAwaitTimeout
	// ErrInstanceSuperseded reports an execution that stopped because a
	// concurrent execution of the same intent (duplicate delivery, a
	// collector restart) logged different values for its reads first; the
	// intent is finished by the other execution. See
	// core.ErrInstanceSuperseded.
	ErrInstanceSuperseded = core.ErrInstanceSuperseded
	// ErrTableSealed reports a write, conditional write or lock of a table
	// sealed with Deployment.Seal; see core.ErrTableSealed.
	ErrTableSealed = core.ErrTableSealed
	// ErrCanceled reports an invocation killed because its context ended
	// (InvokeCtx with a canceled context or an expired deadline). The
	// workflow's intent stays pending and is finished by the collectors:
	// cancellation never weakens exactly-once.
	ErrCanceled = platform.ErrCanceled
	// ErrUnknownFunction reports an Invoke of a function name never
	// registered on this deployment.
	ErrUnknownFunction = errors.New("beldi: unknown function")
)

// AwaitAll resolves promises in order and returns their values in the same
// order — the package-level spelling of Env.AwaitAll for fan-in code that
// reads better as a function.
func AwaitAll(e *Env, ps ...*Promise) ([]Value, error) { return e.AwaitAll(ps...) }

// Value constructors, re-exported for ergonomic application code.
var (
	// Null is the NULL value (also what never-written keys read as).
	Null = dynamo.Null
)

// Str builds a string value.
func Str(s string) Value { return dynamo.S(s) }

// Int builds an integer-valued number.
func Int(i int64) Value { return dynamo.NInt(i) }

// Num builds a number value.
func Num(f float64) Value { return dynamo.N(f) }

// BoolVal builds a boolean value.
func BoolVal(b bool) Value { return dynamo.Bool(b) }

// Bytes builds a binary value.
func Bytes(b []byte) Value { return dynamo.Bytes(b) }

// List builds a list value.
func List(vs ...Value) Value { return dynamo.L(vs...) }

// Map builds a map value from a Go map, which it copies.
func Map(m map[string]Value) Value { return dynamo.M(m) }

// Fields builds a map value from its entries, without a Go map in between:
// Fields(F("op", Str("search")), F("lat", Num(1.5))). The entries are sorted
// by name in place and a repeated name keeps its last value; the slice must
// not be written afterwards.
func Fields(fs ...Field) Value { return dynamo.Fields(fs...) }

// F builds one entry for Fields.
func F(name string, v Value) Field { return dynamo.F(name, v) }

// Cond is a condition for CondWrite, evaluated against the item's current
// state; build with ValueEq and friends.
type Cond = dynamo.Cond

// ValueEq holds when the item's current value equals v.
func ValueEq(v Value) Cond { return dynamo.Eq(dynamo.A("Value"), v) }

// ValueLt holds when the item's current value orders before v.
func ValueLt(v Value) Cond { return dynamo.Lt(dynamo.A("Value"), v) }

// ValueGt holds when the item's current value orders after v.
func ValueGt(v Value) Cond { return dynamo.Gt(dynamo.A("Value"), v) }

// ValueGe holds when the item's current value orders at or after v.
func ValueGe(v Value) Cond { return dynamo.Ge(dynamo.A("Value"), v) }

// ValueLe holds when the item's current value orders at or before v.
func ValueLe(v Value) Cond { return dynamo.Le(dynamo.A("Value"), v) }

// ValueAbsent holds when the key has never been written (or was written
// Null).
func ValueAbsent() Cond {
	return dynamo.Or(dynamo.NotExists(dynamo.A("Value")), dynamo.Eq(dynamo.A("Value"), dynamo.Null))
}

// And combines conditions conjunctively.
func And(cs ...Cond) Cond { return dynamo.And(cs...) }

// Or combines conditions disjunctively.
func Or(cs ...Cond) Cond { return dynamo.Or(cs...) }

// Not negates a condition.
func Not(c Cond) Cond { return dynamo.Not(c) }

// DeploymentOptions configure NewDeployment.
type DeploymentOptions struct {
	// Store backs every function's tables — any Backend implementation (the
	// in-memory dynamo store, the durable WAL-backed walstore, …). Required.
	// Use one store per SSF for strict data sovereignty, or share one
	// (tables are namespaced per function) as teams sharing infrastructure
	// would (§3).
	Store Backend
	// Platform hosts the functions. Required.
	Platform *platform.Platform
	// Mode selects the machinery; ModeBeldi by default.
	Mode Mode
	// Config tunes protocol parameters for every function.
	Config Config
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// IDs defaults to random UUIDs.
	IDs uuid.Source
	// Telemetry, when set, collects crash-surviving traces and unified
	// metrics from every function the deployment registers, plus the shared
	// store, WAL, queue, and platform. Nil disables telemetry (near-zero
	// overhead). See NewTelemetry.
	Telemetry *Telemetry
	// Speculation, when non-nil, wraps Store in the commit-pipelining
	// overlay (internal/pipeline): every function executes speculatively
	// against a read-your-own-writes shadow while a background committer
	// group-commits batches of step writes, and externally visible effects
	// (workflow entry replies above all) are fenced behind the durability
	// watermark. The zero Options value gives the package defaults; Depth 1
	// degenerates to today's synchronous behavior. Default off — nil keeps
	// every existing semantic and test untouched. Single-writer only: do
	// not share the wrapped store with another process or deployment that
	// writes it (cluster workers keep it off). See ARCHITECTURE.md
	// "Speculation & commit pipelining".
	Speculation *SpeculationOptions
}

// SpeculationOptions tune the commit-pipelining overlay; see
// pipeline.Options for the fields (Depth, ManualFlush).
type SpeculationOptions = pipeline.Options

// Deployment wires SSFs to their runtimes: the app-developer view of
// Beldi's architecture (Figure 1).
type Deployment struct {
	opts     DeploymentOptions
	runtimes map[string]*core.Runtime
	durable  *DurableAsync
	pipe     *pipeline.Store

	loopMu sync.Mutex
	loop   *collectLoop // nil until StartCollectors starts it
}

// NewDeployment creates an empty deployment.
func NewDeployment(opts DeploymentOptions) *Deployment {
	d := &Deployment{opts: opts, runtimes: make(map[string]*core.Runtime)}
	if opts.Speculation != nil {
		// Wrap before anything touches the store: runtimes, the durable
		// async broker, and telemetry all see the overlay, so every step
		// write speculates and every read is read-your-own-writes.
		d.pipe = pipeline.MustNew(opts.Store, *opts.Speculation)
		d.opts.Store = d.pipe
	}
	d.attachInfra()
	return d
}

// Pipeline returns the speculation overlay when DeploymentOptions.
// Speculation enabled it, nil otherwise — for stats, fencing, and tests
// that audit durable state through Pipeline().Base().
func (d *Deployment) Pipeline() *pipeline.Store { return d.pipe }

// Function registers an SSF with its own runtime and the logical data
// tables it owns. It panics on misconfiguration (duplicate name, bad
// options) since registration is setup code.
func (d *Deployment) Function(name string, body Body, tables ...string) *core.Runtime {
	if _, ok := d.runtimes[name]; ok {
		panic("beldi: duplicate function " + name)
	}
	rt := core.MustNewRuntime(core.RuntimeOptions{
		Function:  name,
		Store:     d.opts.Store,
		Platform:  d.opts.Platform,
		Mode:      d.opts.Mode,
		Config:    d.opts.Config,
		Clock:     d.opts.Clock,
		IDs:       d.opts.IDs,
		Telemetry: d.opts.Telemetry,
	})
	for _, t := range tables {
		rt.MustCreateDataTable(t)
	}
	core.Register(rt, body)
	if h := d.opts.Telemetry; h != nil {
		stats := rt.Stats()
		h.Registry.Register("core."+name, func() any { return stats.Snapshot() })
	}
	d.runtimes[name] = rt
	return rt
}

// Runtime returns a registered function's runtime, or nil.
func (d *Deployment) Runtime(name string) *core.Runtime { return d.runtimes[name] }

// OnTableChange subscribes handler to committed writes on fn's logical
// table — a table-change (CDC) event source. After each Env.Write or taken
// Env.CondWrite by fn outside a transaction, handler is invoked
// asynchronously with a change-event Map (keys core.ChangeEvTable,
// ChangeEvKey, ChangeEvValue, ChangeEvFn, ChangeEvInstance), exactly once
// per committed change: the fire is a logged step of the writing instance,
// deduplicated through the invoke log across crashes and re-executions.
// Both functions must already be registered. Call during setup, before
// workflows run, and identically across restarts. ModeBaseline and
// transactional writes emit nothing (see internal/core/cdc.go).
func (d *Deployment) OnTableChange(fn, table, handler string) error {
	if err := d.known(fn); err != nil {
		return err
	}
	if err := d.known(handler); err != nil {
		return err
	}
	d.runtimes[fn].RegisterChangeHandler(table, handler)
	return nil
}

// Seal makes fn's logical table read-only for good, durably: from then on
// its Write, CondWrite and Lock fail with ErrTableSealed before any store
// op, and a read costs no read-log row and, once the key was read, no store
// op at all (the value cannot change, so a re-execution reads it again).
// Seal is a load-phase call: make it after the table is filled and before
// workflows run. A runtime that registers the table over the store later —
// a restarted deployment, a cluster worker that joins — adopts the seal; one
// opened before it does not see it.
func (d *Deployment) Seal(fn, table string) error {
	if err := d.known(fn); err != nil {
		return err
	}
	return d.runtimes[fn].Seal(table)
}

// Invoke calls a function synchronously from outside any workflow (an
// external client request). Unregistered names fail with
// ErrUnknownFunction.
func (d *Deployment) Invoke(name string, input Value) (Value, error) {
	if err := d.known(name); err != nil {
		return Null, err
	}
	return d.opts.Platform.Invoke(name, core.ClientEnvelope(input))
}

// InvokeCtx is Invoke bounded by a context: admission waits respect
// cancellation, the workflow's lock retries, wait-die backoffs and promise
// awaits observe ctx (Env.Context), and the instance is killed at its next
// operation boundary once ctx ends — failing the call with ErrCanceled
// while the intent collector finishes (or already finished) the workflow
// exactly once.
func (d *Deployment) InvokeCtx(ctx context.Context, name string, input Value) (Value, error) {
	if err := d.known(name); err != nil {
		return Null, err
	}
	return d.opts.Platform.InvokeCtx(ctx, name, core.ClientEnvelope(input))
}

// InvokeApp is Invoke on behalf of a named application (§2.2 SSF
// reusability): the app name rides the workflow, and SSFs that registered
// app-scoped tables ("<app>:<table>" in Function's table list) keep that
// application's state separate; unscoped tables remain shared across
// applications.
func (d *Deployment) InvokeApp(name, app string, input Value) (Value, error) {
	if err := d.known(name); err != nil {
		return Null, err
	}
	return d.opts.Platform.Invoke(name, core.ClientEnvelopeForApp(app, input))
}

// InvokeAppCtx is InvokeApp bounded by a context, with InvokeCtx's
// cancellation semantics.
func (d *Deployment) InvokeAppCtx(ctx context.Context, name, app string, input Value) (Value, error) {
	if err := d.known(name); err != nil {
		return Null, err
	}
	return d.opts.Platform.InvokeCtx(ctx, name, core.ClientEnvelopeForApp(app, input))
}

// known verifies name was registered on this deployment.
func (d *Deployment) known(name string) error {
	if _, ok := d.runtimes[name]; !ok {
		return fmt.Errorf("%w: %q is not registered on this deployment", ErrUnknownFunction, name)
	}
	return nil
}

// StartCollectors starts the deployment's collection loop: one goroutine on
// the deployment's clock that runs an intent-collection pass every ICMinAge
// (T unless set) and a garbage-collection pass every T, each at least 1 ms
// apart. A pass covers the non-baseline functions registered when
// StartCollectors is called, in sorted order, with RunAllCollectors' body; a
// failed pass is retried at the next one, since both collectors are
// at-least-once (§5). Stop ends the loop. A second call is a no-op.
func (d *Deployment) StartCollectors() {
	rts := d.collected()
	d.loopMu.Lock()
	defer d.loopMu.Unlock()
	if d.loop != nil || len(rts) == 0 {
		return
	}
	clk := d.opts.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	d.loop = &collectLoop{stop: make(chan struct{}), done: make(chan struct{})}
	go d.loop.run(rts, clk)
}

// minCollectPeriod floors the collection loop's periods, as the timer pump
// floors its wait (internal/queue/timer.go): a tiny ICMinAge or T would
// otherwise make the loop spin.
const minCollectPeriod = time.Millisecond

// collectLoop is the goroutine StartCollectors starts: closing stop ends it,
// and done closes once it has returned.
type collectLoop struct {
	stop, done chan struct{}
	once       sync.Once
}

func (l *collectLoop) run(rts []*core.Runtime, clk clock.Clock) {
	defer close(l.done)
	cfg := rts[0].Config() // one Config serves every function of a deployment
	icEvery := max(cfg.ICMinAge, minCollectPeriod)
	gcEvery := max(cfg.T, minCollectPeriod)
	start := clk.Now()
	nextIC, nextGC := start.Add(icEvery), start.Add(gcEvery)
	for {
		next := nextIC
		if nextGC.Before(next) {
			next = nextGC
		}
		select {
		case <-l.stop:
			return
		case <-clk.After(next.Sub(clk.Now())):
		}
		now := clk.Now()
		ic, gc := !now.Before(nextIC), !now.Before(nextGC)
		for _, rt := range rts {
			_ = collect(rt, ic, gc) // retried at the next pass (see StartCollectors)
		}
		end := clk.Now() // the next pass is due a period after this one ends
		if ic {
			nextIC = end.Add(icEvery)
		}
		if gc {
			nextGC = end.Add(gcEvery)
		}
	}
}

// Stop ends the collection loop, waiting for a pass in flight, and stops the
// timer pump when durable async is enabled. With speculation on it
// then fences and closes the pipeline, so everything speculated before Stop
// is durable when Stop returns. A second Stop finds the loop already ended.
func (d *Deployment) Stop() {
	if d.durable != nil {
		d.durable.Stop()
	}
	d.loopMu.Lock()
	l := d.loop
	d.loopMu.Unlock()
	if l != nil {
		l.once.Do(func() { close(l.stop) })
		<-l.done
	}
	if d.pipe != nil {
		// The sticky flush error, if any, already failed the workflows that
		// depended on it through their fences; Close here only drains.
		_ = d.pipe.Close()
	}
}

// PeekState reads an SSF's current committed value for key directly from
// its storage — an inspection aid for examples, tests and operational
// tooling (application reads should go through an SSF, preserving data
// sovereignty).
func PeekState(rt *Runtime, table, key string) (Value, error) {
	return rt.PeekState(table, key)
}

// FsckAll audits every function's durable state against the protocol
// invariants (well-formed DAAL chains, log-size accounting, no locks held by
// completed intents, no leaked log rows), in sorted function order, and
// returns the first function's problems. Run it at quiescence — after chaos
// tests, or as an operational consistency check. A nil error means every
// check passed.
func (d *Deployment) FsckAll() error {
	for _, fn := range d.Functions() {
		if err := core.Fsck(d.runtimes[fn]); err != nil {
			return err
		}
	}
	return nil
}

// RunAllCollectors performs one intent-collection and one garbage-
// collection pass on every function, in sorted function order, so a pass
// issues the same store operations on every run — deterministic collection
// for tests and benchmarks.
func (d *Deployment) RunAllCollectors() error {
	for _, rt := range d.collected() {
		if err := collect(rt, true, true); err != nil {
			return err
		}
	}
	return nil
}

// collected lists the runtimes the collectors serve: every non-baseline
// function, in sorted function order.
func (d *Deployment) collected() []*core.Runtime {
	var rts []*core.Runtime
	for _, fn := range d.Functions() {
		if rt := d.runtimes[fn]; rt.Mode() != ModeBaseline {
			rts = append(rts, rt)
		}
	}
	return rts
}

// collect runs one function's intent-collection pass when ic is set, then
// its garbage-collection pass when gc is.
func collect(rt *core.Runtime, ic, gc bool) error {
	if ic {
		if _, err := rt.RunIntentCollector(); err != nil {
			return err
		}
	}
	if gc {
		if _, err := rt.RunGarbageCollector(); err != nil {
			return err
		}
	}
	return nil
}
