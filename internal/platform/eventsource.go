package platform

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queue"
	"repro/internal/storage"
)

// This file is the trigger half of the event-queue subsystem: an event-source
// mapping in the AWS Lambda/Triggerflow sense. A Mapper polls one durable
// queue in configurable batches and triggers a registered function once per
// message, acking on success and leaving failures to reappear after the
// queue's visibility timeout — so a consumer instance that crashes
// mid-handler is redelivered, and the function's own idempotence (for Beldi
// SSFs, intent-table dedup) turns at-least-once delivery into exactly-once
// processing. Batch size is the throughput lever (the Netherite observation:
// fetching and dispatching work in batches is what amortizes per-message
// round trips).
//
// When the backing store supports commit-stream watches (storage.Watcher),
// an idle mapper blocks on the queue table's push subscription instead of
// sleeping out its poll interval: an enqueue wakes it immediately, so
// trigger latency is decoupled from PollInterval. The subscription is also
// what lets the mapper pay per message rather than per commit (see run): it
// knows which events are its own claims and acks, so it neither re-scans
// after them nor follows every batch with a scan that finds nothing. The
// poll timer stays armed underneath as the liveness fallback — a dropped or
// coalesced wakeup costs at most one PollInterval, never progress.

// EventSourceOptions configure one queue→function mapping.
type EventSourceOptions struct {
	// Queue is the source queue name. Required.
	Queue string
	// Function is the platform function triggered per message. Required.
	Function string
	// BatchSize is how many messages one poll claims. 0 means
	// DefaultBatchSize.
	BatchSize int
	// PollInterval is how long an idle mapper waits before it polls again
	// unprompted — with a push-capable store the bound on what no event
	// announces (a lost wake-up, a delayed message, an expired visibility
	// timeout), without one the poll cadence of an empty queue. 0 means
	// DefaultPollInterval.
	PollInterval time.Duration
	// NackOnError returns failed messages to the queue immediately instead
	// of letting the visibility timeout expire. Faster redelivery, but a
	// crash-looping consumer burns its redelivery budget just as fast;
	// default false (SQS semantics: a dead consumer cannot nack).
	NackOnError bool
}

// Defaults for EventSourceOptions zero values.
const (
	DefaultBatchSize    = 10
	DefaultPollInterval = 10 * time.Millisecond
)

func (o EventSourceOptions) withDefaults() EventSourceOptions {
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.PollInterval == 0 {
		o.PollInterval = DefaultPollInterval
	}
	return o
}

// Mapper polls a queue and triggers its function. Create with NewMapper,
// then either Start a background poll loop or drive it deterministically
// with PollOnce.
type Mapper struct {
	broker *queue.Broker
	plat   *Platform
	opts   EventSourceOptions

	metrics MapperMetrics

	mu      sync.Mutex
	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool
}

// NewMapper creates an event-source mapping from broker's queue to a
// platform function. The queue must exist by the time messages flow.
func NewMapper(broker *queue.Broker, plat *Platform, opts EventSourceOptions) (*Mapper, error) {
	if opts.Queue == "" || opts.Function == "" {
		return nil, fmt.Errorf("platform: NewMapper: Queue and Function are required")
	}
	return &Mapper{broker: broker, plat: plat, opts: opts.withDefaults()}, nil
}

// MustNewMapper is NewMapper, panicking on error; for setup code.
func MustNewMapper(broker *queue.Broker, plat *Platform, opts EventSourceOptions) *Mapper {
	m, err := NewMapper(broker, plat, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Options returns the mapping's effective configuration.
func (m *Mapper) Options() EventSourceOptions { return m.opts }

// Metrics exposes the mapping's counters.
func (m *Mapper) Metrics() *MapperMetrics { return &m.metrics }

// PollOnce claims one batch and triggers the function once per message,
// concurrently across the batch. It returns how many messages were processed
// successfully (invoked and acked) and how many failed (left in flight for
// redelivery, or nacked under NackOnError). Queue-level errors are returned;
// handler errors are not — they are the redelivery path, not the mapper's
// failure.
func (m *Mapper) PollOnce() (processed, failed int, err error) {
	b, err := m.poll()
	return b.processed, len(b.claimed) - b.processed, err
}

// batch is what one poll tells the loop about the batch it settled.
type batch struct {
	processed int // invoked and acked
	// claimed holds the ids of the messages the poll claimed: the hash keys
	// of every commit the mapper itself made on the queue's table.
	claimed map[string]bool
	// nacked: the mapper returned a message to the queue, receivable now.
	nacked bool
}

func (m *Mapper) poll() (batch, error) {
	msgs, err := m.broker.Receive(m.opts.Queue, m.opts.BatchSize)
	if err != nil || len(msgs) == 0 {
		return batch{}, err
	}
	m.metrics.Batches.Add(1)
	b := batch{claimed: make(map[string]bool, len(msgs))}
	var ok atomic.Int64
	var nacked atomic.Bool
	var wg sync.WaitGroup
	for _, msg := range msgs {
		b.claimed[msg.ID] = true
		wg.Add(1)
		go func(msg queue.Message) {
			defer wg.Done()
			delivered, nack := m.deliver(msg)
			if delivered {
				ok.Add(1)
			}
			if nack {
				nacked.Store(true)
			}
		}(msg)
	}
	wg.Wait()
	b.processed = int(ok.Load())
	b.nacked = nacked.Load()
	return b, nil
}

// deliver triggers the function for one message and settles the message by
// the outcome. Reports success, and whether the message was nacked.
//
// Admission depends on the platform's saturation policy. Under
// RejectWhenSaturated the entry path fails fast with ErrThrottled, which we
// turn into an immediate nack-and-retry. Under blocking admission the entry
// path would park this goroutine in the admission queue while the message's
// visibility clock keeps running — a saturated platform would burn healthy
// messages' redelivery budgets — so the trigger runs with internal
// admission, which consumes capacity but never waits for it.
func (m *Mapper) deliver(msg queue.Message) (ok, nacked bool) {
	var err error
	if m.plat.opts.RejectWhenSaturated {
		_, err = m.plat.Invoke(m.opts.Function, msg.Body)
	} else {
		_, err = m.plat.InvokeInternal(m.opts.Function, msg.Body)
	}
	if err != nil {
		m.metrics.Failures.Add(1)
		if errors.Is(err, ErrThrottled) || m.opts.NackOnError {
			// Throttling is the platform refusing admission, not the handler
			// failing: return the message immediately so another poll retries
			// as soon as capacity frees, instead of waiting out the
			// visibility timeout.
			nerr := m.broker.Nack(m.opts.Queue, msg.ID, msg.Receipt)
			if nerr != nil && !errors.Is(nerr, queue.ErrStaleReceipt) {
				m.metrics.SettleErrors.Add(1)
			}
			return false, nerr == nil
		}
		// The instance died (crash, timeout) or the handler errored: like a
		// real dead consumer it cannot nack. The claim expires and the
		// message is redelivered with its receive count advanced.
		return false, false
	}
	if aerr := m.broker.Ack(m.opts.Queue, msg.ID, msg.Receipt); aerr != nil {
		if errors.Is(aerr, queue.ErrStaleReceipt) {
			// The handler outlived the visibility timeout and the message was
			// redelivered meanwhile. The other delivery owns settlement now;
			// the function's idempotence already absorbed the duplicate run.
			m.metrics.StaleDeliveries.Add(1)
			return true, false
		}
		m.metrics.SettleErrors.Add(1)
		return false, false
	}
	m.metrics.Delivered.Add(1)
	return true, false
}

// Start launches the background poll loop (see run). Start is idempotent
// while running.
func (m *Mapper) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.stopCh = make(chan struct{})
	m.doneCh = make(chan struct{})
	go func(stopCh, doneCh chan struct{}) {
		defer close(doneCh)
		m.run(stopCh)
	}(m.stopCh, m.doneCh)
}

// Run polls until ctx ends — the context-first alternative to Start/Stop for
// callers that manage lifecycles with contexts (see run). Run returns
// ctx.Err() once the context is done; messages already claimed keep their
// visibility timeout, so nothing is lost.
func (m *Mapper) Run(ctx context.Context) error {
	m.run(ctx.Done())
	return ctx.Err()
}

// run is the poll loop behind Start and Run: poll, then park on the queue's
// storage.Waiter until new work is likely. Without push that is the classic
// loop — a batch that delivered something polls again at once, anything else
// sleeps PollInterval. With a live subscription the mapper pays per message
// instead:
//
//  1. The waiter is armed before every scan, so whatever committed before
//     the arm is visible to the scan that follows and only later events
//     matter.
//  2. A poll goes idle unless its batch was full (more may be waiting) or
//     the mapper itself nacked a message (receivable again, by its own
//     doing). The subscription is what makes that safe: an enqueue during the
//     batch is a buffered event, not something only a trailing scan finds.
//  3. While idle, an event on a message claimed in the batch just settled is
//     the mapper's own claim or ack. It cannot have made anything receivable
//     and is skipped; any other event wakes.
//  4. It filters only when the batch's own events — at most two per message,
//     a claim and an ack or nack — cannot fill the buffer by themselves. A
//     full buffer then always holds a foreign event, so an event coalesced
//     into it is still followed by a wake-up, the store's hint contract; a
//     batch too big for that wakes on its first event, own or not.
//  5. PollInterval bounds everything push does not announce: a lost wake-up,
//     a delayed message coming due, an expired visibility timeout.
//
// The wait is always interruptible by cancel — Stop and context cancellation
// return promptly no matter how long PollInterval is.
func (m *Mapper) run(cancel <-chan struct{}) {
	w := m.broker.Waiter(m.opts.Queue)
	defer w.Close()
	for {
		select {
		case <-cancel:
			return
		default:
		}
		push := w.Arm()
		b, _ := m.poll() // a failed poll is an empty batch: wait, then retry
		again := b.processed > 0
		if push {
			again = len(b.claimed) == m.opts.BatchSize || b.nacked
		}
		if again {
			continue
		}
		var skip func(storage.CommitEvent) bool
		if own := b.claimed; len(own) > 0 && 2*len(own) < storage.DefaultWatchBuffer { // rule 4
			skip = func(ev storage.CommitEvent) bool { return own[ev.Hash.Str()] }
		}
		if w.Wait(m.opts.PollInterval, cancel, skip) == storage.WakeEvent {
			m.metrics.Wakeups.Add(1)
		}
	}
}

// Stop halts the poll loop and waits for the in-flight poll to finish.
// Messages already claimed keep their visibility timeout; nothing is lost.
func (m *Mapper) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	stopCh, doneCh := m.stopCh, m.doneCh
	m.mu.Unlock()
	close(stopCh)
	<-doneCh
}

// MapperMetrics counts one event-source mapping's activity. Wakeups counts
// idle waits ended by a push event rather than the fallback timer — the
// observable difference between push-triggered and poll-triggered delivery.
// The mapper's own claim and ack events, which it skips, are not counted.
type MapperMetrics struct {
	Batches         atomic.Int64
	Delivered       atomic.Int64
	Failures        atomic.Int64
	StaleDeliveries atomic.Int64
	SettleErrors    atomic.Int64
	Wakeups         atomic.Int64
}

// MapperMetricsView is a point-in-time copy for reporting.
type MapperMetricsView struct {
	Batches, Delivered, Failures  int64
	StaleDeliveries, SettleErrors int64
	Wakeups                       int64
}

// Snapshot copies the counters.
func (m *MapperMetrics) Snapshot() MapperMetricsView {
	return MapperMetricsView{
		Batches:         m.Batches.Load(),
		Delivered:       m.Delivered.Load(),
		Failures:        m.Failures.Load(),
		StaleDeliveries: m.StaleDeliveries.Load(),
		SettleErrors:    m.SettleErrors.Load(),
		Wakeups:         m.Wakeups.Load(),
	}
}
