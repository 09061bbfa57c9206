package beldi

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/queue"
)

// This file wires the durable event-queue subsystem (internal/queue and the
// platform's event-source mappers) into a Deployment: one invocation queue
// and one queue→function mapping per SSF, plus the transport that reroutes
// every AsyncInvoke through them. With durable async enabled, an
// asynchronous workflow edge is an intent-table registration *paired with a
// durable message*, so it survives the caller crashing right after
// registration, the platform dropping the in-process handoff, and the
// consumer crashing mid-handler — the redelivery/dedup pairing the paper's
// §4.5 fire-and-forget protocol assumes of its provider.

// DurableAsyncOptions configure EnableDurableAsync.
type DurableAsyncOptions struct {
	// VisibilityTimeout hides an in-flight message until its consumer acks
	// or dies; 0 means queue.DefaultVisibilityTimeout.
	VisibilityTimeout time.Duration
	// MaxReceives is the per-message redelivery budget before dead-
	// lettering; 0 means queue.DefaultMaxReceives, negative disables.
	MaxReceives int
	// BatchSize is how many messages each mapper poll claims; 0 means
	// platform.DefaultBatchSize.
	BatchSize int
	// PollInterval is the mapper's idle poll delay; 0 means
	// platform.DefaultPollInterval.
	PollInterval time.Duration
}

// DurableAsync is a deployment's event-queue wiring: the broker, the
// per-function invocation queues, their event-source mappers, and the
// durable timer service.
type DurableAsync struct {
	broker    *queue.Broker
	transport *queue.Transport
	mappers   map[string]*platform.Mapper
	timers    *queue.TimerService
}

// EnableDurableAsync switches every registered function's AsyncInvoke to
// queue-backed delivery and returns the wiring. Call it after all Function
// registrations; then either Start the mappers' background pollers or drive
// delivery deterministically with PollAll/Drain. Functions in ModeBaseline
// keep the raw platform handoff (the baseline measures the provider's own
// semantics).
func (d *Deployment) EnableDurableAsync(opts DurableAsyncOptions) *DurableAsync {
	broker := queue.NewBroker(queue.BrokerOptions{Store: d.opts.Store, Clock: d.opts.Clock, IDs: d.opts.IDs})
	transport := queue.NewTransport(broker, queue.Options{
		VisibilityTimeout: opts.VisibilityTimeout,
		MaxReceives:       opts.MaxReceives,
	})
	broker.SetTelemetry(d.opts.Telemetry)
	timers, err := queue.NewTimerService(broker, queue.TimerOptions{PollInterval: opts.PollInterval})
	if err != nil {
		panic(fmt.Sprintf("beldi: EnableDurableAsync: %v", err))
	}
	da := &DurableAsync{broker: broker, transport: transport, mappers: make(map[string]*platform.Mapper), timers: timers}
	if h := d.opts.Telemetry; h != nil {
		m := timers.Metrics()
		h.Registry.Register("timers", func() any { return m.Snapshot() })
	}
	// Provision in sorted function order: queue creation issues storage
	// operations, and a deterministic setup sequence is what lets a
	// simulation seed replay bit-identically.
	for _, name := range d.Functions() {
		rt := d.runtimes[name]
		if rt.Mode() == ModeBaseline {
			continue
		}
		if err := transport.EnsureQueueFor(name); err != nil {
			panic(fmt.Sprintf("beldi: EnableDurableAsync: %v", err))
		}
		rt.SetAsyncTransport(transport)
		da.mappers[name] = platform.MustNewMapper(broker, d.opts.Platform, platform.EventSourceOptions{
			Queue:        queue.QueueFor(name),
			Function:     name,
			BatchSize:    opts.BatchSize,
			PollInterval: opts.PollInterval,
		})
		if h := d.opts.Telemetry; h != nil {
			m := da.mappers[name].Metrics()
			h.Registry.Register("mapper."+name, func() any { return m.Snapshot() })
		}
	}
	d.durable = da
	return da
}

// DurableAsync returns the deployment's event-queue wiring, or nil when
// EnableDurableAsync has not been called.
func (d *Deployment) DurableAsync() *DurableAsync { return d.durable }

// Broker exposes the underlying queue broker (inspection, direct
// enqueueing, DLQ access).
func (da *DurableAsync) Broker() *queue.Broker { return da.broker }

// Mapper returns the event-source mapping for one function, or nil.
func (da *DurableAsync) Mapper(fn string) *platform.Mapper { return da.mappers[fn] }

// Timers returns the deployment's durable timer service, backed by the same
// store as the invocation queues. Registrations survive crashes and broker
// restarts; fires are exactly-once per occurrence (see queue.TimerService).
func (da *DurableAsync) Timers() *queue.TimerService { return da.timers }

// ScheduleInvoke durably registers a timer that invokes fn with input after
// delay, repeating every period when period > 0 (a cron workflow). The fire
// enqueues a client invocation envelope onto fn's invocation queue with a
// deterministic per-occurrence instance id stamped in, so each occurrence
// runs as exactly one workflow instance no matter how often the queue
// redelivers it. Idempotent per id; cancel with Timers().Cancel(id).
func (da *DurableAsync) ScheduleInvoke(id, fn string, input Value, delay, period time.Duration) error {
	if _, ok := da.mappers[fn]; !ok {
		return fmt.Errorf("beldi: ScheduleInvoke: %q has no durable invocation queue", fn)
	}
	return da.timers.Schedule(queue.TimerSpec{
		ID:       id,
		Queue:    queue.QueueFor(fn),
		Body:     core.ClientEnvelope(input),
		Delay:    delay,
		Period:   period,
		StampKey: core.InstanceKey,
	})
}

// functions lists the mapped function names in sorted order, so every
// all-mappers pass issues its storage operations in a replayable sequence.
func (da *DurableAsync) functions() []string {
	out := make([]string, 0, len(da.mappers))
	for name := range da.mappers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Start launches every mapping's background poll loop and the timer pump.
func (da *DurableAsync) Start() {
	for _, name := range da.functions() {
		da.mappers[name].Start()
	}
	da.timers.Start()
}

// Stop halts every mapping's poll loop and the timer pump.
func (da *DurableAsync) Stop() {
	da.timers.Stop()
	for _, name := range da.functions() {
		da.mappers[name].Stop()
	}
}

// PollAll runs one poll over every mapping in sorted function order,
// returning total messages processed successfully and failed — the
// deterministic drive for tests.
func (da *DurableAsync) PollAll() (processed, failed int, err error) {
	for _, name := range da.functions() {
		p, f, perr := da.mappers[name].PollOnce()
		processed += p
		failed += f
		if perr != nil && err == nil {
			err = perr
		}
	}
	return processed, failed, err
}

// Depth sums live messages (visible and in flight) across all invocation
// queues.
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

// Drain polls every mapping until all invocation queues are empty — waiting
// out visibility timeouts of crashed consumers, so redelivery and
// dead-lettering run to completion — or until timeout. Returns the number of
// successful deliveries.
func (da *DurableAsync) Drain(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	delivered := 0
	for {
		p, _, err := da.PollAll()
		delivered += p
		if err != nil {
			return delivered, err
		}
		depth, err := da.Depth()
		if err != nil {
			return delivered, err
		}
		if depth == 0 {
			return delivered, nil
		}
		if time.Now().After(deadline) {
			return delivered, fmt.Errorf("beldi: Drain: %d messages still queued after %v", depth, timeout)
		}
		if p == 0 {
			// Nothing visible: in-flight claims must expire before the
			// redelivery (or dead-lettering) can happen.
			time.Sleep(time.Millisecond)
		}
	}
}
