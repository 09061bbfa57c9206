// Package queue is a durable, at-least-once message-queue subsystem — the
// slice of SQS/EventBridge that event-driven serverless workflows depend on
// — layered on the same internal/dynamo substrate as the rest of the
// reproduction, so every queue operation pays store-shaped latency and is
// atomic only within a single row.
//
// Semantics follow SQS standard queues: Enqueue durably appends a message;
// Receive claims up to a batch of visible messages, hiding each behind a
// visibility timeout and handing back a receipt; Ack deletes a message by
// receipt. A consumer that crashes mid-handler simply never acks — the
// message reappears after the visibility timeout, with its receive count
// incremented. Messages whose receive count exceeds the queue's redelivery
// budget are moved to a dead-letter queue instead of being delivered again,
// bounding the damage of poison messages.
//
// Delivery is at least once; exactly-once downstream is the consumer's job.
// Beldi's own asynchronous invocations use no queue: an async edge is the
// callee's registered intent, and the intent collector redelivers it. The
// broker serves application queues, and its timer service (timer.go) fires
// durable timers — beldi's DurableAsync puts a timer occurrence's intent row
// in the transaction that advances the timer.
package queue

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/uuid"
)

// Value is the message payload type, shared with the store and platform.
type Value = dynamo.Value

// Queue errors.
var (
	// ErrNoSuchQueue reports an operation on an undeclared queue.
	ErrNoSuchQueue = errors.New("queue: no such queue")
	// ErrQueueExists reports a duplicate Create.
	ErrQueueExists = errors.New("queue: queue already exists")
	// ErrStaleReceipt reports an Ack with a receipt that no longer matches:
	// the message's visibility timeout expired and it was re-claimed (or
	// already acked) by someone else. Callers treat this as
	// "someone else owns the message now", not as data loss.
	ErrStaleReceipt = errors.New("queue: stale receipt")
)

// Message is one received message. Receipt identifies this particular
// delivery: Ack requires it, so a slow consumer whose claim expired cannot
// ack a message that has since been redelivered elsewhere.
type Message struct {
	ID           string
	Body         Value
	Receipt      string
	ReceiveCount int // deliveries including this one
	EnqueuedAt   int64
}

// Options configure a queue at Create time.
type Options struct {
	// VisibilityTimeout hides a received message from other consumers until
	// it is acked or the timeout expires. 0 means DefaultVisibilityTimeout.
	VisibilityTimeout time.Duration
	// MaxReceives is the redelivery budget: a message that comes back for
	// its (MaxReceives+1)th delivery is dead-lettered instead. 0 means
	// DefaultMaxReceives; negative disables dead-lettering.
	MaxReceives int
}

// Defaults for Options zero values.
const (
	DefaultVisibilityTimeout = 30 * time.Second
	DefaultMaxReceives       = 5
)

func (o Options) withDefaults() Options {
	if o.VisibilityTimeout == 0 {
		o.VisibilityTimeout = DefaultVisibilityTimeout
	}
	if o.MaxReceives == 0 {
		o.MaxReceives = DefaultMaxReceives
	}
	return o
}

// BrokerOptions configure a Broker.
type BrokerOptions struct {
	// Store persists every queue — any storage.Backend. Required.
	Store storage.Backend
	// Clock drives enqueue timestamps and visibility expiry; defaults to the
	// wall clock (tests inject clock.Manual to expire timeouts instantly).
	Clock clock.Clock
	// IDs mints message ids and receipts; defaults to random UUIDs.
	IDs uuid.Source
}

// Broker manages a set of durable queues on one store.
type Broker struct {
	store storage.Backend
	clk   clock.Clock
	ids   uuid.Source

	mu     sync.RWMutex
	queues map[string]Options

	seq     atomic.Int64 // enqueue-order tiebreak within one broker process
	metrics Metrics

	// Telemetry wiring (SetTelemetry); both nil when telemetry is off.
	tel     atomic.Pointer[telemetry.Hub]
	histHop atomic.Pointer[hist.Histogram]
}

// NewBroker creates a broker.
func NewBroker(opts BrokerOptions) *Broker {
	if opts.Store == nil {
		panic("queue: NewBroker requires a Store")
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	ids := opts.IDs
	if ids == nil {
		ids = uuid.Random{}
	}
	return &Broker{store: opts.Store, clk: clk, ids: ids, queues: make(map[string]Options)}
}

// Metrics exposes the broker's counters.
func (b *Broker) Metrics() *Metrics { return &b.metrics }

// SetTelemetry attaches the broker to a telemetry hub: counters are
// registered under "queue", every delivery records an enqueue-to-receive
// queue.hop span, and hop latency feeds the "queue.hop" histogram.
func (b *Broker) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	b.tel.Store(h)
	b.histHop.Store(h.Registry.Histogram("queue.hop"))
	h.Registry.Register("queue", func() any { return b.metrics.Snapshot() })
}

// observeHop records one delivery's queue dwell: enqueue to receive. The
// span's intent comes from the message body when it is an invocation
// envelope (the platform's trigger path), so the hop shows up inside the
// workflow's trace between the caller's async step and the callee's run.
func (b *Broker) observeHop(queue string, m Message, now int64) {
	tel := b.tel.Load()
	if tel == nil {
		return
	}
	intent := ""
	if v, ok := m.Body.MapGet("InstanceId"); ok {
		intent = v.Str()
	}
	tel.Tracer.Record(telemetry.Span{
		Intent: intent, Kind: telemetry.KindQueueHop, Fn: queue, Name: m.ID,
		Start: m.EnqueuedAt * 1000, End: now * 1000,
		Replay: m.ReceiveCount > 1,
	})
	if h := b.histHop.Load(); h != nil && m.ReceiveCount == 1 {
		h.Record(time.Duration(now-m.EnqueuedAt) * time.Microsecond)
	}
}

// Message table attributes.
const (
	attrMsgID   = "MsgId"
	attrBody    = "Body"
	attrSeq     = "Seq"
	attrEnq     = "EnqueuedAt"
	attrVisible = "VisibleAt"
	attrRecv    = "ReceiveCount"
	attrReceipt = "Receipt"
	attrReason  = "Reason" // DLQ rows: why the message was dead-lettered
)

// A message row's existence tests, built once: a Cond is a boxed value, and
// every enqueue, claim and ack evaluates one.
var (
	msgAbsent  = dynamo.NotExists(dynamo.A(attrMsgID))
	msgPresent = dynamo.Exists(dynamo.A(attrMsgID))
)

// Physical table names.
func tableOf(q string) string    { return "queue." + q }
func dlqTableOf(q string) string { return "queue." + q + ".dlq" }

// Create declares a queue, materializing its message table and dead-letter
// table. Both are single-shard whatever the store's default: all of a
// queue's enqueues and claims share one commit stream, so the store's
// group-commit path coalesces an enqueue burst into a handful of batches,
// while different queues — separate tables — never contend.
func (b *Broker) Create(name string, opts Options) error {
	if name == "" {
		return fmt.Errorf("queue: Create: name is required")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.queues[name]; ok {
		return fmt.Errorf("%w: %s", ErrQueueExists, name)
	}
	for _, table := range []string{tableOf(name), dlqTableOf(name)} {
		err := b.store.CreateTable(dynamo.Schema{Name: table, HashKey: attrMsgID, Shards: 1})
		if errors.Is(err, dynamo.ErrTableExists) {
			// Tables surviving from a prior broker are the point of
			// durability: a restarted broker reopens its queues, backlog
			// intact.
			continue
		}
		if err != nil {
			return err
		}
	}
	b.queues[name] = opts.withDefaults()
	return nil
}

// MustCreate is Create, panicking on error; for setup code.
func (b *Broker) MustCreate(name string, opts Options) {
	if err := b.Create(name, opts); err != nil {
		panic(err)
	}
}

// EnsureQueue creates the queue if it does not exist yet (idempotent
// declaration, used by the async transport's auto-provisioning).
func (b *Broker) EnsureQueue(name string, opts Options) error {
	if err := b.Create(name, opts); err != nil && !errors.Is(err, ErrQueueExists) {
		return err
	}
	return nil
}

// Queues lists declared queue names in sorted order.
func (b *Broker) Queues() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.queues))
	for n := range b.queues {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (b *Broker) options(name string) (Options, error) {
	b.mu.RLock()
	o, ok := b.queues[name]
	b.mu.RUnlock()
	if !ok {
		return Options{}, fmt.Errorf("%w: %s", ErrNoSuchQueue, name)
	}
	return o, nil
}

func (b *Broker) now() int64 { return b.clk.Now().UnixMicro() }

// Enqueue durably appends body to the queue and returns the message id. The
// message is visible immediately.
func (b *Broker) Enqueue(name string, body Value) (string, error) {
	return b.EnqueueDelayed(name, body, 0)
}

// EnqueueDelayed is Enqueue with an initial invisibility period (SQS's
// DelaySeconds).
func (b *Broker) EnqueueDelayed(name string, body Value, delay time.Duration) (string, error) {
	if _, err := b.options(name); err != nil {
		return "", err
	}
	now := b.now()
	seq := b.seq.Add(1)
	// Ids embed the enqueue time and a process-local sequence so scanning in
	// hash-key order approximates arrival order (best-effort, like SQS
	// standard queues); the uuid suffix keeps ids unique across brokers.
	id := fmt.Sprintf("%016x-%08x-%s", now, seq, b.ids.NewString())
	item := dynamo.Item{
		attrMsgID:   dynamo.S(id),
		attrBody:    body,
		attrSeq:     dynamo.NInt(seq),
		attrEnq:     dynamo.NInt(now),
		attrVisible: dynamo.NInt(now + delay.Microseconds()),
		attrRecv:    dynamo.NInt(0),
	}
	if err := b.store.Put(tableOf(name), item, msgAbsent); err != nil {
		return "", err
	}
	b.metrics.Enqueued.Add(1)
	return id, nil
}

// Receive claims up to max visible messages, hiding each behind the queue's
// visibility timeout and stamping a fresh receipt. Claims are per-message
// conditional updates, so concurrent consumers never receive the same
// delivery twice. Messages over their redelivery budget are moved to the
// dead-letter queue as a side effect and not returned. An empty result means
// no message was visible.
func (b *Broker) Receive(name string, max int) ([]Message, error) {
	opts, err := b.options(name)
	if err != nil {
		return nil, err
	}
	if max <= 0 {
		max = 1
	}
	now := b.now()
	// Candidate selection over-fetches so claim races with other consumers
	// still fill the batch.
	rows, err := b.store.Scan(tableOf(name), dynamo.QueryOpts{
		Filter: dynamo.Le(dynamo.A(attrVisible), dynamo.NInt(now)),
		Limit:  max * 2,
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][attrSeq].Int() < rows[j][attrSeq].Int() })

	var out []Message
	for _, row := range rows {
		if len(out) >= max {
			break
		}
		id := row[attrMsgID].Str()
		observedVis := row[attrVisible].Int()
		recv := int(row[attrRecv].Int())
		if opts.MaxReceives >= 0 && recv >= opts.MaxReceives {
			// Redelivery budget exhausted: dead-letter instead of delivering.
			if err := b.deadLetter(name, row, observedVis, "max-receives"); err != nil {
				return nil, err
			}
			continue
		}
		receipt := b.ids.NewString()
		// The claim: atomically hide the message, guarded on the visibility
		// we observed so racing consumers cannot double-claim one delivery.
		err := b.store.Update(tableOf(name), dynamo.HK(dynamo.S(id)),
			dynamo.And(
				msgPresent,
				dynamo.Eq(dynamo.A(attrVisible), dynamo.NInt(observedVis)),
			),
			dynamo.Set(dynamo.A(attrVisible), dynamo.NInt(now+opts.VisibilityTimeout.Microseconds())),
			dynamo.Set(dynamo.A(attrReceipt), dynamo.S(receipt)),
			dynamo.Add(dynamo.A(attrRecv), 1),
		)
		if err != nil {
			if errors.Is(err, dynamo.ErrConditionFailed) {
				continue // lost the race; another consumer claimed it
			}
			return nil, err
		}
		if recv > 0 {
			b.metrics.Redelivered.Add(1)
		}
		b.metrics.Received.Add(1)
		msg := Message{
			ID:           id,
			Body:         row[attrBody],
			Receipt:      receipt,
			ReceiveCount: recv + 1,
			EnqueuedAt:   row[attrEnq].Int(),
		}
		b.observeHop(name, msg, now)
		out = append(out, msg)
	}
	if len(out) == 0 {
		b.metrics.EmptyReceives.Add(1)
	}
	return out, nil
}

// deadLetter moves a message row to the queue's DLQ: copy first, then a
// delete guarded on the visibility we observed. The copy is idempotent (a
// racing mover writes the same row), and a crash between the two operations
// leaves the message live for a retry — at-least-once is preserved; the
// reverse order could lose the message outright.
func (b *Broker) deadLetter(name string, row dynamo.Item, observedVis int64, reason string) error {
	id := row[attrMsgID].Str()
	// One level deep: only attributes are added; the body stays the value
	// the store already shares.
	dead := maps.Clone(row)
	dead[attrReason] = dynamo.S(reason)
	if err := b.store.Put(dlqTableOf(name), dead, nil); err != nil {
		return err
	}
	err := b.store.Delete(tableOf(name), dynamo.HK(dynamo.S(id)),
		dynamo.And(
			msgPresent,
			dynamo.Eq(dynamo.A(attrVisible), dynamo.NInt(observedVis)),
		))
	if err != nil {
		if errors.Is(err, dynamo.ErrConditionFailed) {
			// Another mover won the race; its DLQ copy equals ours. Only
			// over-budget movers ever touch this message now, so the stray
			// copy cannot disagree with the eventual delete.
			return nil
		}
		return err
	}
	b.metrics.DeadLettered.Add(1)
	return nil
}

// Ack deletes a received message, identified by its delivery receipt. A
// stale receipt (the claim expired and the message was redelivered, or it
// was already acked) returns ErrStaleReceipt and leaves the queue unchanged.
func (b *Broker) Ack(name, msgID, receipt string) error {
	if _, err := b.options(name); err != nil {
		return err
	}
	err := b.store.Delete(tableOf(name), dynamo.HK(dynamo.S(msgID)),
		dynamo.And(
			msgPresent,
			dynamo.Eq(dynamo.A(attrReceipt), dynamo.S(receipt)),
		))
	if err != nil {
		if errors.Is(err, dynamo.ErrConditionFailed) {
			b.metrics.StaleAcks.Add(1)
			return fmt.Errorf("%w: %s/%s", ErrStaleReceipt, name, msgID)
		}
		return err
	}
	b.metrics.Acked.Add(1)
	return nil
}

// Len counts messages currently visible (receivable now).
func (b *Broker) Len(name string) (int, error) {
	if _, err := b.options(name); err != nil {
		return 0, err
	}
	rows, err := b.store.Scan(tableOf(name), dynamo.QueryOpts{
		Filter:     dynamo.Le(dynamo.A(attrVisible), dynamo.NInt(b.now())),
		Projection: []dynamo.Path{dynamo.A(attrMsgID)},
	})
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

// Depth counts all live messages, visible and in flight.
func (b *Broker) Depth(name string) (int, error) {
	if _, err := b.options(name); err != nil {
		return 0, err
	}
	n, err := b.store.TableItemCount(tableOf(name))
	if err != nil {
		return 0, err
	}
	return n, nil
}

// DeadLetters returns the dead-letter queue's messages in arrival order.
func (b *Broker) DeadLetters(name string) ([]Message, error) {
	if _, err := b.options(name); err != nil {
		return nil, err
	}
	rows, err := b.store.Scan(dlqTableOf(name), dynamo.QueryOpts{})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][attrSeq].Int() < rows[j][attrSeq].Int() })
	out := make([]Message, 0, len(rows))
	for _, row := range rows {
		out = append(out, Message{
			ID:           row[attrMsgID].Str(),
			Body:         row[attrBody],
			ReceiveCount: int(row[attrRecv].Int()),
			EnqueuedAt:   row[attrEnq].Int(),
		})
	}
	return out, nil
}

// Redrive moves every dead-lettered message back onto the main queue with a
// reset redelivery budget (the operational "fixed the consumer, try again"
// path). It returns the number of messages redriven.
//
// The reinsert is guarded on the message id being absent from the main
// queue. An earlier redrive (this process's or another's) that crashed
// between its put and its DLQ delete leaves the message live in both
// places; an unconditional put here would then overwrite the live row —
// resetting its redelivery budget and, worse, erasing the Receipt of a
// consumer holding an in-flight claim, forcing a duplicate delivery. With
// the guard, the second redrive just completes the first one's delete.
func (b *Broker) Redrive(name string) (int, error) {
	if _, err := b.options(name); err != nil {
		return 0, err
	}
	rows, err := b.store.Scan(dlqTableOf(name), dynamo.QueryOpts{})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, row := range rows {
		id := row[attrMsgID].Str()
		// One level deep, as in deadLetter: attributes change, values do not.
		live := maps.Clone(row)
		delete(live, attrReason)
		delete(live, attrReceipt)
		live[attrRecv] = dynamo.NInt(0)
		live[attrVisible] = dynamo.NInt(b.now())
		err := b.store.Put(tableOf(name), live, msgAbsent)
		if err != nil && !errors.Is(err, dynamo.ErrConditionFailed) {
			return n, err
		}
		if err := b.store.Delete(dlqTableOf(name), dynamo.HK(dynamo.S(id)), nil); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Metrics counts broker activity across all queues.
type Metrics struct {
	Enqueued      atomic.Int64
	Received      atomic.Int64
	Acked         atomic.Int64
	Redelivered   atomic.Int64
	DeadLettered  atomic.Int64
	StaleAcks     atomic.Int64
	EmptyReceives atomic.Int64
}

// MetricsView is a point-in-time copy for reporting — the common snapshot
// shape shared with core.Stats, dynamo.Metrics, and the other subsystems.
type MetricsView struct {
	Enqueued, Received, Acked int64
	Redelivered, DeadLettered int64
	StaleAcks, EmptyReceives  int64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsView {
	return MetricsView{
		Enqueued:      m.Enqueued.Load(),
		Received:      m.Received.Load(),
		Acked:         m.Acked.Load(),
		Redelivered:   m.Redelivered.Load(),
		DeadLettered:  m.DeadLettered.Load(),
		StaleAcks:     m.StaleAcks.Load(),
		EmptyReceives: m.EmptyReceives.Load(),
	}
}
