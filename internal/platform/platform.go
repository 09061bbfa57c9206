// Package platform is an in-process serverless platform: the slice of AWS
// Lambda that Beldi depends on (§2.1 of the paper). It provides a function
// registry, synchronous and asynchronous invocation, a per-account
// concurrency ceiling (1,000 on AWS, the saturation bottleneck in the
// paper's Figures 14/15/26), per-function execution timeouts, cold/warm
// start latency, a fresh instance per invocation (stateless routing), and —
// crucially for testing Beldi — a programmable fault injector that can kill
// an instance at any operation boundary.
//
// The platform performs no automatic retries: like the paper's experimental
// setup ("we turn off automatic Lambda restarts"), recovery is entirely the
// job of Beldi's intent collectors.
package platform

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/uuid"
)

// Value is the invocation payload type (shared with the store substrate so
// applications move one value model end to end).
type Value = dynamo.Value

// Handler is a function's entry point. Input is the invocation payload;
// the returned Value is delivered to synchronous callers.
type Handler func(inv *Invocation, input Value) (Value, error)

// Platform errors.
var (
	// ErrNoSuchFunction reports an invocation of an unregistered function.
	ErrNoSuchFunction = errors.New("platform: no such function")
	// ErrCrashed reports that the invoked instance died mid-execution
	// (injected fault or runtime panic). State may be partially mutated —
	// exactly the failure Beldi exists to mask.
	ErrCrashed = errors.New("platform: function instance crashed")
	// ErrTimeout reports that the instance exceeded its execution timeout
	// and was killed by the platform.
	ErrTimeout = errors.New("platform: function timed out")
	// ErrThrottled reports rejection at the concurrency ceiling when the
	// platform is configured to reject rather than queue.
	ErrThrottled = errors.New("platform: concurrency limit exceeded")
	// ErrCanceled reports that the invocation's context was canceled (or its
	// deadline expired) and the instance was killed at its next operation
	// boundary — the context-first analogue of ErrTimeout. Like any other
	// instance death, partial state is left for Beldi's collectors to
	// resolve: cancellation never weakens exactly-once.
	ErrCanceled = errors.New("platform: invocation canceled")
)

// Options configure a Platform.
type Options struct {
	// ConcurrencyLimit caps simultaneously running instances across all
	// functions (AWS's per-account limit; the paper hits 1,000). 0 means
	// DefaultConcurrencyLimit.
	ConcurrencyLimit int
	// RejectWhenSaturated makes invocations beyond the limit fail with
	// ErrThrottled instead of queueing.
	RejectWhenSaturated bool
	// ColdStart and WarmStart are invocation dispatch latencies. A warm
	// instance is reused when one is idle; otherwise the invocation pays
	// ColdStart.
	ColdStart time.Duration
	WarmStart time.Duration
	// HandlerCompute models the handler's own execution time (parsing,
	// business logic) independent of storage and invocation round trips;
	// applied with Jitter to every instance.
	HandlerCompute time.Duration
	// Jitter is the ± fraction of uniform noise applied to start latencies.
	Jitter float64
	// Seed seeds the jitter source.
	Seed int64
	// IDs generates request ids; nil means crypto/rand UUIDs.
	IDs uuid.Source
	// Faults is the crash plan consulted at every CrashPoint; nil disables
	// injection.
	Faults FaultPlan
	// Clock is what start latencies are slept on and execution timeouts
	// are measured by; nil means clock.Real.
	Clock clock.Clock
	// AsyncDispatch, when non-nil, runs asynchronous invocations instead of
	// `go run()` — the scheduling seam deterministic simulators use to turn
	// fire-and-forget handoffs into schedulable tasks. run must be called
	// exactly once (on any goroutine) for Drain to return; a dispatch that
	// drops it is a platform that loses every asynchronous fire.
	AsyncDispatch func(run func())
}

// DefaultConcurrencyLimit mirrors the AWS limit in the paper's evaluation.
const DefaultConcurrencyLimit = 1000

// DefaultBatchSize is the receive batch of the benchmark module's queue
// probe (benchmarks/probes.go), its only reader; nothing in this package
// uses it. It goes with that probe.
const DefaultBatchSize = 10

// Platform runs registered functions.
type Platform struct {
	opts Options

	mu  sync.RWMutex
	fns map[string]*function

	running atomic.Int64 // instances in flight, entry and internal
	ids     uuid.Source
	rng     *lockedRand
	metrics Metrics

	faultsMu sync.RWMutex
	faults   FaultPlan

	wg sync.WaitGroup // tracks async invocations for Drain
}

type function struct {
	name    string
	handler Handler
	timeout time.Duration

	mu       sync.Mutex
	idleWarm int // simulated pool of warm workers
}

// New creates a platform.
func New(opts Options) *Platform {
	if opts.ConcurrencyLimit == 0 {
		opts.ConcurrencyLimit = DefaultConcurrencyLimit
	}
	ids := opts.IDs
	if ids == nil {
		ids = uuid.Random{}
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	return &Platform{
		opts:   opts,
		fns:    make(map[string]*function),
		ids:    ids,
		rng:    newLockedRand(opts.Seed),
		faults: opts.Faults,
	}
}

// SetFaults installs (or replaces) the fault plan at runtime.
func (p *Platform) SetFaults(plan FaultPlan) {
	p.faultsMu.Lock()
	p.faults = plan
	p.faultsMu.Unlock()
}

func (p *Platform) faultPlan() FaultPlan {
	p.faultsMu.RLock()
	defer p.faultsMu.RUnlock()
	return p.faults
}

// Register installs a function under name. A positive timeout bounds each
// instance's execution: the instance is killed at its next operation
// boundary after expiry, matching how Beldi's GC synchrony assumption
// treats the user-defined timeout as the bound T (§5). 0 means no timeout.
// Re-registering a name replaces the handler (deployments).
func (p *Platform) Register(name string, h Handler, timeout time.Duration) {
	p.mu.Lock()
	p.fns[name] = &function{name: name, handler: h, timeout: timeout}
	p.mu.Unlock()
}

// Functions lists registered function names (unordered).
func (p *Platform) Functions() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.fns))
	for n := range p.fns {
		out = append(out, n)
	}
	return out
}

// Metrics exposes the platform's counters.
func (p *Platform) Metrics() *Metrics { return &p.metrics }

// Invoke runs function name synchronously with a fresh instance and returns
// its result. Entry invocations block for a concurrency slot (or are
// rejected, per RejectWhenSaturated) — the account-level admission that
// bottlenecks the paper's saturation experiments.
func (p *Platform) Invoke(name string, input Value) (Value, error) {
	return p.invoke(context.Background(), name, input, false, false)
}

// InvokeCtx is Invoke bounded by a context: the admission wait respects
// cancellation, and the instance carries the context (Invocation.Context) so
// it is killed at its next operation boundary once the context ends — the
// entry point workflows with client deadlines use.
func (p *Platform) InvokeCtx(ctx context.Context, name string, input Value) (Value, error) {
	return p.invoke(ctx, name, input, false, false)
}

// InvokeInternal runs name synchronously on behalf of an already-running
// instance (SSF-to-SSF calls, callbacks, collector restarts). Internal
// invocations consume concurrency when available but never block for it:
// a worker that is already holding a slot while waiting on a child would
// otherwise deadlock the account at its own limit — the situation a real
// platform resolves by throttling with immediate errors and retries.
// Capacity pressure from internal calls still starves entry admission, so
// the saturation knee is preserved.
func (p *Platform) InvokeInternal(name string, input Value) (Value, error) {
	return p.invoke(context.Background(), name, input, false, true)
}

// InvokeInternalCtx is InvokeInternal carrying a caller's context, so
// cancellation and deadlines propagate down SSF-to-SSF call chains.
func (p *Platform) InvokeInternalCtx(ctx context.Context, name string, input Value) (Value, error) {
	return p.invoke(ctx, name, input, false, true)
}

// InvokeAsync starts function name and returns immediately. Errors occurring
// inside the instance are not reported to the caller — the fire-and-forget
// semantics Beldi's asyncInvoke builds on.
func (p *Platform) InvokeAsync(name string, input Value) error {
	return p.invokeAsync(name, input, false)
}

// InvokeAsyncInternal is InvokeAsync with internal admission (see
// InvokeInternal).
func (p *Platform) InvokeAsyncInternal(name string, input Value) error {
	return p.invokeAsync(name, input, true)
}

func (p *Platform) invokeAsync(name string, input Value, internal bool) error {
	p.mu.RLock()
	_, ok := p.fns[name]
	p.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchFunction, name)
	}
	p.wg.Add(1)
	run := func() {
		defer p.wg.Done()
		p.invoke(context.Background(), name, input, true, internal) //nolint:errcheck // async errors are dropped by design
	}
	if p.opts.AsyncDispatch != nil {
		p.opts.AsyncDispatch(run)
		return nil
	}
	go run()
	return nil
}

// Drain blocks until all asynchronous invocations have finished.
func (p *Platform) Drain() { p.wg.Wait() }

func (p *Platform) invoke(ctx context.Context, name string, input Value, async, internal bool) (Value, error) {
	out, err := p.invokeInner(ctx, name, input, async, internal)
	// Cancellation can surface from several places (the entry check, the
	// admission wait, the watcher select, or the instance dying at a crash
	// point); counting at the single exit keeps Cancels at exactly one per
	// canceled invocation.
	if errors.Is(err, ErrCanceled) {
		p.metrics.Cancels.Add(1)
	}
	return out, err
}

func (p *Platform) invokeInner(ctx context.Context, name string, input Value, async, internal bool) (Value, error) {
	p.mu.RLock()
	fn, ok := p.fns[name]
	p.mu.RUnlock()
	if !ok {
		return dynamo.Null, fmt.Errorf("%w: %s", ErrNoSuchFunction, name)
	}
	if err := ctx.Err(); err != nil {
		return dynamo.Null, fmt.Errorf("%w: %s: %v", ErrCanceled, name, err)
	}

	// Concurrency admission. Every instance — entry or internal — counts
	// against the account limit, but only entry invocations wait for room:
	// an internal call blocking for a slot its own ancestors hold would
	// otherwise deadlock the account at its own limit (real platforms break
	// this cycle by throttling internal calls with errors; the paper's
	// evaluation relies on entry admission as the visible bottleneck).
	limit := int64(p.opts.ConcurrencyLimit)
	if internal {
		p.running.Add(1)
	} else if p.opts.RejectWhenSaturated {
		if !p.admitOnce(limit) {
			p.metrics.Throttles.Add(1)
			return dynamo.Null, ErrThrottled
		}
	} else if err := p.admitWait(ctx, limit); err != nil {
		return dynamo.Null, fmt.Errorf("%w: %s: %v", ErrCanceled, name, err)
	}
	defer p.running.Add(-1)
	p.trackConcurrency()

	// Cold/warm start latency.
	fn.mu.Lock()
	cold := fn.idleWarm == 0
	if !cold {
		fn.idleWarm--
	}
	fn.mu.Unlock()
	var startLat time.Duration
	if cold {
		p.metrics.ColdStarts.Add(1)
		startLat = p.jittered(p.opts.ColdStart)
	} else {
		startLat = p.jittered(p.opts.WarmStart)
	}
	if c := p.jittered(p.opts.HandlerCompute); c > 0 {
		startLat += c
	}
	if startLat > 0 {
		p.opts.Clock.Sleep(startLat)
	}

	inv := &Invocation{
		RequestID: p.ids.NewString(),
		Function:  name,
		Async:     async,
		ctx:       ctx,
		platform:  p,
	}
	if fn.timeout > 0 {
		inv.deadline = p.opts.Clock.Now().Add(fn.timeout)
	}
	p.metrics.Invocations.Add(1)

	out, err := p.runInstance(fn, inv, input)

	fn.mu.Lock()
	fn.idleWarm++
	fn.mu.Unlock()
	return out, err
}

// runInstance executes the handler as one worker instance. An instance
// nothing outside can end early — no execution timeout and a context that
// can never be canceled — runs on the invoking goroutine, as a function
// call: a nested synchronous invocation deepens its invoker's stack. Only an
// instance with a deadline or a cancelable context gets a goroutine of its
// own, because only then may its caller be answered (ErrTimeout,
// ErrCanceled) before the instance itself returns; it dies later, at its
// next CrashPoint.
func (p *Platform) runInstance(fn *function, inv *Invocation, input Value) (Value, error) {
	if inv.deadline.IsZero() && inv.ctx.Done() == nil {
		out, err := p.call(fn, inv, input)
		p.metrics.Completions.Add(1)
		return out, err
	}
	type result struct {
		out Value
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := p.call(fn, inv, input)
		done <- result{out, err}
	}()

	var expired <-chan time.Time
	if !inv.deadline.IsZero() {
		expired = p.opts.Clock.After(inv.deadline.Sub(p.opts.Clock.Now()) + 10*time.Millisecond)
	}
	select {
	case r := <-done:
		p.metrics.Completions.Add(1)
		return r.out, r.err
	case <-expired:
		// The instance missed its deadline and has not yet hit a crash
		// point; report the timeout to the caller. The goroutine will die at
		// its next CrashPoint.
		p.metrics.Timeouts.Add(1)
		return dynamo.Null, fmt.Errorf("%w: %s", ErrTimeout, inv.Function)
	case <-inv.ctx.Done():
		// The caller gave up; report promptly. The instance goroutine dies at
		// its next CrashPoint (the same boundary discipline as timeouts), and
		// whatever it leaves behind is the intent collector's to finish.
		return dynamo.Null, fmt.Errorf("%w: %s: %v", ErrCanceled, inv.Function, inv.ctx.Err())
	}
}

// call runs the handler, turning a panic that kills the instance — an
// injected crash, a timeout or cancellation at a CrashPoint, or an
// application panic — into its error, so the death unwinds the instance
// without touching the caller, exactly like a worker VM dying.
func (p *Platform) call(fn *function, inv *Invocation, input Value) (out Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = dynamo.Null, p.died(inv, r)
		}
	}()
	return fn.handler(inv, input)
}

// died is the error, and the Metrics count, of an instance killed by the
// recovered panic value r.
func (p *Platform) died(inv *Invocation, r any) error {
	c, ok := r.(crash)
	switch {
	case !ok:
		// A genuine application panic also kills the worker.
		p.metrics.Crashes.Add(1)
		return fmt.Errorf("%w: %s: panic: %v", ErrCrashed, inv.Function, r)
	case c.timeout:
		p.metrics.Timeouts.Add(1)
		return fmt.Errorf("%w: %s at %q", ErrTimeout, inv.Function, c.label)
	case c.canceled:
		return fmt.Errorf("%w: %s at %q", ErrCanceled, inv.Function, c.label)
	default:
		p.metrics.Crashes.Add(1)
		return fmt.Errorf("%w: %s at %q", ErrCrashed, inv.Function, c.label)
	}
}

// admitOnce claims a slot if one is free.
func (p *Platform) admitOnce(limit int64) bool {
	for {
		cur := p.running.Load()
		if cur >= limit {
			return false
		}
		if p.running.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// admitWait claims a slot, waiting for one to free (entry queueing — where
// saturation latency comes from in the sweep figures). The wait backs off
// so a deep admission queue doesn't burn CPU polling, and aborts with the
// context's error if the caller gives up while queued.
func (p *Platform) admitWait(ctx context.Context, limit int64) error {
	backoff := 200 * time.Microsecond
	for !p.admitOnce(limit) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 2*time.Millisecond {
			backoff *= 2
		}
	}
	return nil
}

func (p *Platform) trackConcurrency() {
	cur := p.running.Load()
	for {
		hw := p.metrics.ConcurrencyHighWater.Load()
		if cur <= hw || p.metrics.ConcurrencyHighWater.CompareAndSwap(hw, cur) {
			return
		}
	}
}

func (p *Platform) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	if p.opts.Jitter <= 0 {
		return d
	}
	f := 1 + p.opts.Jitter*(2*p.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// Invocation is the per-instance context handed to handlers. It is the
// platform-level identity Beldi builds on: RequestID is the UUID the first
// SSF of a workflow adopts as its instance id (§3.3).
type Invocation struct {
	RequestID string
	Function  string
	Async     bool

	ctx      context.Context
	platform *Platform
	deadline time.Time
	ops      atomic.Int64
}

// Context returns the context the invocation runs under —
// context.Background() unless the caller used an InvokeCtx variant. Beldi
// exposes it to bodies as Env.Context.
func (inv *Invocation) Context() context.Context {
	if inv.ctx == nil {
		return context.Background()
	}
	return inv.ctx
}

// crash is the panic payload used to kill an instance.
type crash struct {
	label    string
	timeout  bool
	canceled bool
}

// IsInjectedCrash reports whether a recovered panic value is the platform's
// instance-kill signal (injected fault or timeout). Library code that
// recovers panics for its own purposes MUST re-raise these — a kill is the
// worker dying, not an application exception.
func IsInjectedCrash(r any) bool {
	_, ok := r.(crash)
	return ok
}

// CrashPoint marks an operation boundary labelled point+step (Beldi passes
// a boundary kind such as "write:post:" and the step key; step may be
// empty). The instance dies here if the fault plan says so or if its
// execution timeout has expired. Beldi's library calls this around every
// external operation, giving fault-injection tests step-level kill
// granularity. The label is built only when a fault plan is installed or
// the instance dies here.
func (inv *Invocation) CrashPoint(point, step string) {
	n := inv.ops.Add(1)
	if !inv.deadline.IsZero() && inv.platform.opts.Clock.Now().After(inv.deadline) {
		panic(crash{label: point + step, timeout: true})
	}
	if inv.ctx != nil && inv.ctx.Err() != nil {
		// The invocation's context ended: die at this operation boundary, the
		// same way a timeout kills. The intent stays pending — cancellation
		// aborts cleanly; it never produces a partial effect the collectors
		// cannot finish or that replay would duplicate.
		panic(crash{label: point + step, canceled: true})
	}
	p := inv.platform
	if p == nil {
		return
	}
	if plan := p.faultPlan(); plan != nil {
		if label := point + step; plan.ShouldCrash(inv.Function, label, int(n)) {
			panic(crash{label: label})
		}
	}
}

// Kill unconditionally crashes the instance (used by tests that model a
// worker dying outside any fault plan).
func (inv *Invocation) Kill(label string) {
	panic(crash{label: label})
}

// Platform returns the platform that spawned this instance, letting
// handlers invoke other functions (driver functions, §2.1).
func (inv *Invocation) Platform() *Platform { return inv.platform }

// Metrics counts platform activity.
type Metrics struct {
	Invocations          atomic.Int64
	Completions          atomic.Int64
	Crashes              atomic.Int64
	Timeouts             atomic.Int64
	Cancels              atomic.Int64
	Throttles            atomic.Int64
	ColdStarts           atomic.Int64
	ConcurrencyHighWater atomic.Int64
}

// MetricsView is a point-in-time copy for reporting — the common snapshot
// shape shared with core.Stats, dynamo.Metrics, and the other subsystems.
type MetricsView struct {
	Invocations, Completions, Crashes, Timeouts int64
	Cancels, Throttles, ColdStarts              int64
	ConcurrencyHighWater                        int64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsView {
	return MetricsView{
		Invocations:          m.Invocations.Load(),
		Completions:          m.Completions.Load(),
		Crashes:              m.Crashes.Load(),
		Timeouts:             m.Timeouts.Load(),
		Cancels:              m.Cancels.Load(),
		Throttles:            m.Throttles.Load(),
		ColdStarts:           m.ColdStarts.Load(),
		ConcurrencyHighWater: m.ConcurrencyHighWater.Load(),
	}
}

type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	if seed == 0 {
		seed = 1
	}
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	f := l.rng.Float64()
	l.mu.Unlock()
	return f
}
