package beldi

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/queue"
)

// This file wires durable asynchrony into a Deployment. An asynchronous
// workflow edge is the paper's §4.5 protocol as it stands: the callee's
// intent row is registered synchronously, then the run is fired in-process.
// The registered intent is the durable record of the invocation — it holds
// the whole run envelope and sits in the pending index — so the intent
// collector, which every collection loop runs, is what redelivers a run the
// caller or the platform lost. EnableDurableAsync adds what that leaves
// out: a bound on how often one intent is launched, so a poison callee ends
// up listed (DeadIntents) rather than relaunched forever, and durable
// timers whose occurrences register intents the same way.

// DurableAsyncOptions configure EnableDurableAsync.
type DurableAsyncOptions struct {
	// MaxReceives is the launch budget of an asynchronous intent: its
	// in-process fire counts as the first launch, and each intent-collector
	// relaunch as one more; a relaunch past the budget marks the intent
	// dead instead (DeadIntents, Redrive). 0 means DefaultMaxReceives,
	// negative disables the bound.
	MaxReceives int
	// PollInterval is the timer pump's idle poll delay; 0 means
	// queue.DefaultTimerPoll.
	PollInterval time.Duration
}

// DefaultMaxReceives is the default launch budget of an asynchronous intent.
const DefaultMaxReceives = 5

// DurableAsync is a deployment's durable-asynchrony wiring: the launch
// budget on its functions' async intents and the durable timer service.
type DurableAsync struct {
	d      *Deployment
	broker *queue.Broker
	timers *queue.TimerService
}

// EnableDurableAsync puts a launch budget on every registered function's
// asynchronous intents and returns the wiring, with its timer service. Call
// it after all Function registrations. Functions in ModeBaseline are left
// alone (the baseline measures the provider's own semantics).
func (d *Deployment) EnableDurableAsync(opts DurableAsyncOptions) *DurableAsync {
	budget := opts.MaxReceives
	if budget == 0 {
		budget = DefaultMaxReceives
	}
	broker := queue.NewBroker(queue.BrokerOptions{Store: d.opts.Store, Clock: d.opts.Clock, IDs: d.opts.IDs})
	broker.SetTelemetry(d.opts.Telemetry)
	da := &DurableAsync{d: d, broker: broker}
	timers, err := queue.NewTimerService(broker, queue.TimerOptions{Fire: da.fire, PollInterval: opts.PollInterval})
	if err != nil {
		panic(fmt.Sprintf("beldi: EnableDurableAsync: %v", err))
	}
	da.timers = timers
	if h := d.opts.Telemetry; h != nil {
		h.Registry.Register("timers", func() any { return timers.Metrics().Snapshot() })
	}
	for _, rt := range d.collected() {
		rt.SetLaunchBudget(budget)
	}
	d.durable = da
	return da
}

// DurableAsync returns the deployment's durable-asynchrony wiring, or nil
// when EnableDurableAsync has not been called.
func (d *Deployment) DurableAsync() *DurableAsync { return d.durable }

// Broker exposes a queue broker on the deployment's store, for application
// queues and their inspection; asynchronous invocations use no queue.
func (da *DurableAsync) Broker() *queue.Broker { return da.broker }

// Mapper returns nil for every function: nothing polls a queue to trigger
// a function, since an asynchronous invocation is its registered intent and
// the intent collector redelivers it. Mapper and NoMapper are a shim kept
// only for the benchmark module's ledger, which sums Batches and Wakeups
// over a deployment's functions; ROADMAP's [benchmark] slot deletes them
// with those ledger lines.
func (da *DurableAsync) Mapper(string) *NoMapper { return nil }

// NoMapper is the type of Mapper's nil result: the counters of a mapping
// that does not exist.
type NoMapper struct{ Batches, Wakeups int64 }

// Metrics returns zero counters.
func (*NoMapper) Metrics() NoMapper { return NoMapper{} }

// Snapshot returns m.
func (m NoMapper) Snapshot() NoMapper { return m }

// Timers returns the deployment's durable timer service. Registrations
// survive crashes and broker restarts; fires are exactly-once per
// occurrence (see queue.TimerService).
func (da *DurableAsync) Timers() *queue.TimerService { return da.timers }

// ScheduleInvoke durably registers a timer that invokes fn with input after
// delay, repeating every period when period > 0 (a cron workflow). Each
// occurrence registers an asynchronous intent of fn whose instance id is the
// occurrence's id, in the transaction that advances the timer, then fires it
// in-process: an occurrence runs as exactly one workflow instance, and the
// intent collector relaunches one whose fire was lost. Idempotent per id;
// cancel with Timers().Cancel(id).
func (da *DurableAsync) ScheduleInvoke(id, fn string, input Value, delay, period time.Duration) error {
	if rt := da.d.runtimes[fn]; rt == nil || rt.Mode() == ModeBaseline {
		return fmt.Errorf("beldi: ScheduleInvoke: %q is not a registered Beldi function", fn)
	}
	return da.timers.Schedule(queue.TimerSpec{ID: id, Target: fn, Body: input, Delay: delay, Period: period})
}

// fire is the timer service's Fire: the occurrence's intent put and its
// in-process launch (core.Runtime.ScheduledIntent).
func (da *DurableAsync) fire(fn, id string, input Value) (dynamo.TxOp, func(), error) {
	// A registration written when a fire was enqueued on fn's invocation
	// queue names "invoke."+fn, with fn's client envelope as the body.
	if name, ok := strings.CutPrefix(fn, "invoke."); ok {
		fn, input = name, core.ClientInput(input)
	}
	rt := da.d.runtimes[fn]
	if rt == nil || rt.Mode() == ModeBaseline {
		return dynamo.TxOp{}, nil, fmt.Errorf("beldi: timer target %q is not a registered Beldi function", fn)
	}
	put, run := rt.ScheduledIntent(id, input)
	return put, run, nil
}

// Start launches the timer pump. It starts no collection loop: that is
// Deployment.StartCollectors.
func (da *DurableAsync) Start() { da.timers.Start() }

// Stop halts the timer pump.
func (da *DurableAsync) Stop() { da.timers.Stop() }

// Depth sums live messages (visible and in flight) across the broker's
// queues; asynchronous invocations add none.
func (da *DurableAsync) Depth() (int, error) {
	total := 0
	for _, q := range da.broker.Queues() {
		n, err := da.broker.Depth(q)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Drain settles the deployment's asynchronous work, the deterministic drive
// for tests and demos: it waits for the platform's in-flight runs, then, while
// any function has a pending intent, runs one intent-collection pass over
// every function, until none is pending or until timeout. A pass relaunches
// only intents older than ICMinAge, so a deployment with a long one waits
// for it. It returns how many instances the passes relaunched.
func (da *DurableAsync) Drain(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	relaunched := 0
	for {
		da.d.opts.Platform.Drain()
		pending := 0
		for _, rt := range da.d.collected() {
			n, err := core.PendingIntents(da.d.opts.Store, rt.Function())
			if err != nil {
				return relaunched, err
			}
			pending += n
		}
		if pending == 0 {
			return relaunched, nil
		}
		if time.Now().After(deadline) {
			return relaunched, fmt.Errorf("beldi: Drain: %d intents still pending after %v", pending, timeout)
		}
		pass := 0
		for _, rt := range da.d.collected() {
			n, err := rt.RunIntentCollector()
			if err != nil {
				return relaunched, err
			}
			pass += n
		}
		if relaunched += pass; pass == 0 {
			time.Sleep(time.Millisecond) // the pending intents are younger than ICMinAge
		}
	}
}

// DeadIntents lists fn's dead intents — asynchronous intents whose launch
// budget ran out — by instance id.
func (da *DurableAsync) DeadIntents(fn string) ([]string, error) {
	if err := da.d.known(fn); err != nil {
		return nil, err
	}
	return da.d.runtimes[fn].DeadIntents()
}

// Redrive returns fn's dead intents to the pending index with a fresh launch
// budget and fires each one in-process; it returns how many it redrove. Fix
// what made them fail first.
func (da *DurableAsync) Redrive(fn string) (int, error) {
	if err := da.d.known(fn); err != nil {
		return 0, err
	}
	return da.d.runtimes[fn].Redrive()
}
