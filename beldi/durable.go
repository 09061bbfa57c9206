package beldi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/storage"
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
// timers, each a schedule registration in the intent table that the same
// collector passes fire when it comes due (core.Runtime.Schedule).

// DurableAsyncOptions configure EnableDurableAsync.
type DurableAsyncOptions struct {
	// MaxReceives is the launch budget of an asynchronous intent: its
	// in-process fire (a timer occurrence's, the launch by the claim that
	// fired it) counts as the first launch, and each intent-collector relaunch as one more; a
	// relaunch past the budget marks the intent dead instead (DeadIntents,
	// Redrive). 0 means DefaultMaxReceives, negative disables the bound.
	MaxReceives int
}

// DefaultMaxReceives is the default launch budget of an asynchronous intent.
const DefaultMaxReceives = 5

// legacyTimerTable is where an earlier version kept durable timer
// registrations. Nothing fires them any more, so a store that still holds
// some is refused (EnableDurableAsync) rather than silently left unfired.
const legacyTimerTable = "queue.timers"

// DurableAsync is a deployment's durable-asynchrony wiring: the launch
// budget on its functions' async intents and their durable timers.
type DurableAsync struct {
	d      *Deployment
	broker *queue.Broker
}

// EnableDurableAsync puts a launch budget on every registered function's
// asynchronous intents and returns the wiring. Call it after all Function
// registrations. Functions in ModeBaseline are left alone (the baseline
// measures the provider's own semantics). It panics when the store holds
// timer registrations of an earlier version in a non-empty "queue.timers"
// table: there is no migration (see OPERATIONS.md).
func (d *Deployment) EnableDurableAsync(opts DurableAsyncOptions) *DurableAsync {
	da, err := d.enableDurableAsync(opts)
	if err != nil {
		panic(err)
	}
	return da
}

// enableDurableAsync is EnableDurableAsync returning its refusal.
func (d *Deployment) enableDurableAsync(opts DurableAsyncOptions) (*DurableAsync, error) {
	if n, err := d.opts.Store.TableItemCount(legacyTimerTable); err == nil && n > 0 {
		return nil, fmt.Errorf("beldi: EnableDurableAsync: the store holds %d timer registrations in %s, which nothing fires any more: schedule them again with ScheduleInvoke, then delete the table", n, legacyTimerTable)
	} else if err != nil && !errors.Is(err, storage.ErrNoSuchTable) {
		return nil, fmt.Errorf("beldi: EnableDurableAsync: %w", err)
	}
	budget := opts.MaxReceives
	if budget == 0 {
		budget = DefaultMaxReceives
	}
	broker := queue.NewBroker(queue.BrokerOptions{Store: d.opts.Store, Clock: d.opts.Clock, IDs: d.opts.IDs})
	broker.SetTelemetry(d.opts.Telemetry)
	for _, rt := range d.collected() {
		rt.SetLaunchBudget(budget)
	}
	d.durable = &DurableAsync{d: d, broker: broker}
	return d.durable, nil
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

// ScheduleInvoke durably schedules fn's invocation with input after delay,
// repeating every period when period > 0 (a cron workflow). The schedule's
// registration is a pending row of fn's intent table, keyed by id and due
// at now + delay on the deployment's clock: the first intent-collection
// pass that finds it due fires it, with the claim every relaunch makes, and
// that claim puts and launches the occurrence's asynchronous intent and
// moves the registration to its next due time, a period later (a one-shot's
// is deleted). A pass fires every occurrence that is due, so a deployment
// that was down catches up one occurrence per missed period. Each
// occurrence runs as exactly one workflow instance, whose instance id is
// the occurrence's, and the collectors relaunch one whose run was lost.
// ScheduleInvoke is idempotent per (id, fn) while the registration is live
// (periodic, or a one-shot not fired yet), racing calls included: the first
// registration wins. Cancel with CancelInvoke. A started collection loop
// (StartCollectors) runs a pass at once and then by the earliest due time
// it saw; a cluster worker fires within its collection period, LeaseTTL.
func (da *DurableAsync) ScheduleInvoke(id, fn string, input Value, delay, period time.Duration) error {
	rt, err := da.scheduled(fn)
	if err != nil {
		return err
	}
	if err := rt.Schedule(id, input, delay, period); err != nil {
		return err
	}
	da.d.nudgeCollectors()
	return nil
}

// CancelInvoke cancels fn's schedule id, deleting its registration: no
// occurrence of it launches from now on. An occurrence already fired is not
// recalled, and an unknown id is a no-op.
func (da *DurableAsync) CancelInvoke(id, fn string) error {
	rt, err := da.scheduled(fn)
	if err != nil {
		return err
	}
	return rt.CancelSchedule(id)
}

// scheduled is fn's runtime, when fn can be scheduled: a registered
// function not in ModeBaseline.
func (da *DurableAsync) scheduled(fn string) (*core.Runtime, error) {
	if rt := da.d.runtimes[fn]; rt != nil && rt.Mode() != ModeBaseline {
		return rt, nil
	}
	return nil, fmt.Errorf("beldi: %q is not a registered Beldi function", fn)
}

// Start does nothing: durable timers fire from the intent collectors'
// passes. Start and Stop are a shim kept only for the benchmark module,
// which calls them; ROADMAP's [benchmark] slot deletes them.
func (da *DurableAsync) Start() {}

// Stop does nothing; see Start.
func (da *DurableAsync) Stop() {}

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
// any function has a pending intent that is due, runs one intent-collection
// pass over every function, until none is or until timeout. A pass
// relaunches only intents older than ICMinAge, so a deployment with a long
// one waits for it; a schedule not due yet does not hold Drain.
// It returns how many instances the passes relaunched.
func (da *DurableAsync) Drain(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	relaunched := 0
	for {
		da.d.opts.Platform.Drain()
		pending := 0
		for _, rt := range da.d.collected() {
			n, err := rt.DueIntents()
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
