package remote

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/storage/codec"
)

// Client-side commit-stream watch: Watch registers a subscription on the
// server over one pooled connection, and the server pushes codeEvent frames
// that connection's readLoop routes back to the subscription. Subscriptions
// are connection-scoped — when the connection breaks, the event channel
// closes and the consumer resubscribes or falls back to polling, the same
// degradation path storage.Watch gives backends without push at all.

// clientSub is a live watch subscription carried by one pooled connection.
type clientSub struct {
	client *Client
	pc     *poolConn
	id     uint64
	ch     chan storage.CommitEvent
	closed bool // guarded by pc.mu
}

// Events returns the delivery channel; it closes when the subscription is
// closed or its connection is lost. Events may coalesce under load — treat
// them as wakeup hints and re-read the table.
func (w *clientSub) Events() <-chan storage.CommitEvent { return w.ch }

// Wait implements storage.Subscription.Wait; a lost connection is a closed
// subscription.
func (w *clientSub) Wait(d time.Duration, cancel <-chan struct{}, skip func(storage.CommitEvent) bool) bool {
	return dynamo.WaitEvents(w.ch, d, cancel, skip)
}

// Close unregisters the subscription locally and tells the server to stop
// pushing (best effort — on a dead connection the server already reaped it).
// Idempotent.
func (w *clientSub) Close() {
	if !w.pc.dropWatch(w) {
		return
	}
	w.pc.mu.Lock()
	live := w.pc.conn != nil
	w.pc.mu.Unlock()
	if !live {
		return
	}
	_ = w.client.callOn(w.pc, opUnwatch, func(e *codec.Encoder) { e.U64(w.id) }) // best effort
}

func (w *clientSub) String() string { return fmt.Sprintf("remote-watch(%d)", w.id) }

// addWatch registers sub for event delivery; must happen before the opWatch
// RPC is sent so a push racing the RPC response is not dropped.
func (p *poolConn) addWatch(w *clientSub) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.watches == nil {
		p.watches = make(map[uint64]*clientSub)
	}
	p.watches[w.id] = w
	p.client.metrics.WatchSubs.Add(1)
}

// dropWatch unregisters sub and closes its channel; false when it was
// already torn down (by Close or a connection failure).
func (p *poolConn) dropWatch(w *clientSub) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.closed {
		return false
	}
	w.closed = true
	delete(p.watches, w.id)
	close(w.ch)
	p.client.metrics.WatchSubs.Add(-1)
	return true
}

// callOn runs one RPC on a specific pooled connection, with no cross-
// connection retries — watch registration must land on the connection whose
// readLoop will carry the events. Like call it owns the request's encoder
// until it returns and releases the response; neither watch reply carries a
// result to decode.
func (c *Client) callOn(pc *poolConn, op byte, enc func(*codec.Encoder)) error {
	if c.isClosed() {
		return ErrClosed
	}
	e := codec.GetEncoder()
	defer codec.PutEncoder(e)
	id, frame, err := c.request(e, op, enc)
	if err != nil {
		return err
	}
	res, err := pc.attempt(id, frame, c.opts.OpTimeout)
	if err != nil {
		ae := err.(attemptErr)
		if errors.Is(ae.err, ErrClosed) || errors.Is(ae.err, ErrUnavailable) {
			return ae.err
		}
		return fmt.Errorf("%w: %s: %v", ErrUnavailable, opName(op), ae.err)
	}
	return res.finish(nil)
}

// Watch implements storage.Watcher over the wire: the subscription is
// registered on the server before Watch returns, so every commit after the
// call produces a push (subject to buffer coalescing). The subscription is
// pinned to one pooled connection; if that connection later fails, the event
// channel closes and the caller resubscribes or falls back to polling.
func (c *Client) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	pc := c.pool[c.rr.Add(1)%uint64(len(c.pool))]
	if _, err := pc.get(); err != nil {
		return nil, err
	}
	w := &clientSub{
		client: c,
		pc:     pc,
		id:     c.watchSeq.Add(1),
		ch:     make(chan storage.CommitEvent, storage.DefaultWatchBuffer),
	}
	pc.addWatch(w)
	err := c.callOn(pc, opWatch, func(e *codec.Encoder) {
		e.U64(w.id)
		e.Str(table)
		e.Value(hash)
	})
	if err != nil {
		pc.dropWatch(w)
		return nil, err
	}
	return w, nil
}

var _ storage.Watcher = (*Client)(nil)
