package telemetry

import "sync"

// Kind classifies a span.
type Kind string

// Span kinds. Exec spans cover one execution attempt of one intent; step
// kinds cover one logged operation inside an attempt; call/async/await
// spans carry the causal edge to a child intent; txn and queue kinds cover
// the transaction phases and the enqueue→receive hop; a read-log flush span
// (Step: the first row's step key, Name: "<boundary> rows=<n>") shows where
// an instance's deferred read-log inserts landed.
const (
	KindExec      Kind = "exec"
	KindRead      Kind = "read"
	KindWrite     Kind = "write"
	KindCondWrite Kind = "condwrite"
	KindLock      Kind = "lock"
	KindUnlock    Kind = "unlock"
	KindCall      Kind = "call"
	KindAsync     Kind = "async"
	KindAwait     Kind = "await"
	KindTxnCommit Kind = "txn.commit"
	KindTxnAbort  Kind = "txn.abort"
	KindQueueHop  Kind = "queue.hop"

	KindReadLogFlush Kind = "flush"
)

// Span is one observed interval, keyed by the intent id (Beldi's durable
// instance id) plus the branch-qualified step key — exactly the
// identifiers the protocol already persists, which is what lets spans from
// a pre-crash execution and its collector-restarted successor land in the
// same trace.
type Span struct {
	// Intent is the instance id of the execution this span belongs to.
	Intent string `json:"intent"`
	// Step is the branch-qualified step key ("0.000002"), empty for exec
	// and queue-hop spans.
	Step string `json:"step,omitempty"`
	// Kind classifies the span.
	Kind Kind `json:"kind"`
	// Fn is the SSF name (queue name for hop spans).
	Fn string `json:"fn,omitempty"`
	// Name is the operand: "table/key" for state ops, the callee function
	// for calls, the transaction id for txn spans.
	Name string `json:"name,omitempty"`
	// Start and End are UnixNano timestamps from the runtime's clock.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Replay marks a step whose effect was found already logged (DAAL or
	// invoke/read-log hit), or an exec attempt of an already-created
	// intent — i.e. work the protocol deduplicated rather than redid.
	Replay bool `json:"replay,omitempty"`
	// Child is the callee intent id on call/async/await spans: the causal
	// edge the trace assembler follows across SSF boundaries.
	Child string `json:"child,omitempty"`
	// ParentIntent/ParentStep on exec spans name the caller coordinates
	// from the invocation envelope (empty for root invocations).
	ParentIntent string `json:"parent_intent,omitempty"`
	ParentStep   string `json:"parent_step,omitempty"`
	// Err carries the failure, "crashed" when the attempt died mid-flight.
	Err string `json:"err,omitempty"`
}

// Tracer collects spans into a fixed-capacity ring buffer; when full, the
// oldest spans are overwritten. Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	cap     int
	next    int // write cursor once the ring has wrapped
	wrapped bool
	dropped int64
}

// DefaultTracerCap is the span capacity used when NewTracer gets n <= 0.
const DefaultTracerCap = 65536

// NewTracer returns a Tracer holding up to n spans (DefaultTracerCap when
// n <= 0).
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultTracerCap
	}
	return &Tracer{cap: n}
}

// Record appends one span.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, s)
		return
	}
	t.spans[t.next] = s
	t.next = (t.next + 1) % t.cap
	t.wrapped = true
	t.dropped++
}

// Spans returns the buffered spans, oldest first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Span(nil), t.spans...)
	}
	out := make([]Span, 0, len(t.spans))
	out = append(out, t.spans[t.next:]...)
	out = append(out, t.spans[:t.next]...)
	return out
}

// Dropped reports how many spans the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards all buffered spans.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.next = 0
	t.wrapped = false
}
