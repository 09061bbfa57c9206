package remote

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/storage"
	"repro/internal/storage/codec"
)

// Options tune a Client. The zero value is usable: Dial fills in the
// defaults below.
type Options struct {
	// PoolSize is the number of TCP connections requests round-robin over
	// (default 4). Each connection pipelines, so the pool is for bandwidth
	// and head-of-line isolation, not one-conn-per-request.
	PoolSize int
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds one RPC attempt end to end (default 5s). A timed-out
	// attempt counts against the retry budget if the operation is safe to
	// retry.
	OpTimeout time.Duration
	// Retries is how many times an idempotence-safe operation is retried
	// after its first failed attempt. 0 means the default, 3; a negative
	// value means no retries.
	Retries int
	// RetryBackoff is the base sleep between attempts, growing linearly
	// (default 10ms).
	RetryBackoff time.Duration
	// ClientID prefixes TransactWrite request ids so retries from this
	// client deduplicate server-side. Random when empty.
	ClientID string
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.ClientID == "" {
		var b [8]byte
		rand.Read(b[:])
		o.ClientID = hex.EncodeToString(b[:])
	}
	return o
}

// ClientStats counts a client's wire behavior; read a point-in-time copy
// with Snapshot.
type ClientStats struct {
	// RPCs counts attempts put on the wire; Retries the ones beyond an
	// operation's first.
	RPCs    atomic.Int64
	Retries atomic.Int64
	// Reconnects counts re-dials after a pooled connection broke.
	Reconnects atomic.Int64
	// Timeouts counts attempts abandoned at OpTimeout.
	Timeouts atomic.Int64
	// Unavailable counts operations that surfaced ErrUnavailable after the
	// retry budget (or fail-fast rule) gave up.
	Unavailable atomic.Int64
	// BytesRead and BytesWritten count frame bodies in each direction.
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// ClientStatsSnapshot is a point-in-time copy of ClientStats.
type ClientStatsSnapshot struct {
	RPCs         int64
	Retries      int64
	Reconnects   int64
	Timeouts     int64
	Unavailable  int64
	BytesRead    int64
	BytesWritten int64
}

// Snapshot copies the counters.
func (s *ClientStats) Snapshot() ClientStatsSnapshot {
	return ClientStatsSnapshot{
		RPCs:         s.RPCs.Load(),
		Retries:      s.Retries.Load(),
		Reconnects:   s.Reconnects.Load(),
		Timeouts:     s.Timeouts.Load(),
		Unavailable:  s.Unavailable.Load(),
		BytesRead:    s.BytesRead.Load(),
		BytesWritten: s.BytesWritten.Load(),
	}
}

// Client is a storage.Backend whose every call is an RPC to a storaged
// server. Safe for concurrent use; Close releases the pool.
type Client struct {
	addr string
	opts Options

	reqSeq   atomic.Uint64 // request ids, per client
	txSeq    atomic.Uint64 // TransactWrite dedup id suffix
	rr       atomic.Uint64 // round-robin pool cursor
	watchSeq atomic.Uint64 // watch ids, per client (its own id space)

	pool []*poolConn

	// metrics mirrors the op/failure counters an in-process backend keeps,
	// counted client-side so metric-delta checks (and the harnesses built
	// on them) see the same shape either way. ServerMetrics fetches the
	// server's own counters.
	metrics dynamo.Metrics
	latency hist.Histogram
	extHist atomic.Pointer[hist.Histogram]
	stats   ClientStats

	mu     sync.Mutex
	closed bool
}

// Dial connects to a storaged server at addr and returns the client. The
// pool dials lazily; Dial itself verifies the address with one connection
// and handshake so a bad address or version skew fails here, not on first
// use.
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.pool = make([]*poolConn, c.opts.PoolSize)
	for i := range c.pool {
		c.pool[i] = &poolConn{client: c}
	}
	// Probe: a Ping over the pool exercises dial + handshake.
	if err := c.ping(); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr reports the server address this client dials.
func (c *Client) Addr() string { return c.addr }

// Stats exposes the client's live wire counters.
func (c *Client) Stats() *ClientStats { return &c.stats }

// RPCLatency is the per-attempt round-trip latency histogram.
func (c *Client) RPCLatency() *hist.Histogram { return &c.latency }

// SetRPCHistogram mirrors per-attempt latency recordings into h (the
// telemetry registry's "remote.rpc_latency" histogram) in addition to the
// client's own.
func (c *Client) SetRPCHistogram(h *hist.Histogram) { c.extHist.Store(h) }

// Close hangs up every pooled connection. In-flight RPCs fail with
// ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	for _, pc := range c.pool {
		pc.close(ErrClosed)
	}
	return nil
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Client) ping() error { return c.call(opPing, nil, nil) }

// --- RPC core ---

// rpcResult is what a connection's read loop delivers for one request.
type rpcResult struct {
	code byte           // the response's result code
	m    *codec.Message // the response, positioned after the code
	err  error          // connection-level failure
}

// finish is where a response's bytes become the caller's values: dec reads a
// successful response's result (nil when it has none to read), a failed one
// is rebuilt into its error, and either way the body goes back to the pool —
// nothing decoded aliases it.
func (r rpcResult) finish(dec func(*codec.Decoder)) error {
	defer r.m.Release()
	if r.code != codeOK {
		return decodeError(r.code, &r.m.Decoder)
	}
	if dec != nil {
		dec(&r.m.Decoder)
	}
	return decodeErr(&r.m.Decoder)
}

// waiter is the per-attempt state a connection's read loop and its caller
// meet at: the channel the response arrives on and the attempt's deadline.
// Only an attempt that received on ch recycles its waiter; see attempt.
type waiter struct {
	ch    chan rpcResult
	timer *time.Timer
}

var waiters = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop() // armed by each attempt's Reset
	return &waiter{ch: make(chan rpcResult, 1), timer: t}
}}

// poolConn is one pooled connection: a lazily-dialed TCP conn, a write
// lock, and a demultiplexing read loop that routes responses to waiters by
// request id.
type poolConn struct {
	client *Client

	mu      sync.Mutex
	conn    net.Conn
	pending map[uint64]chan rpcResult
	watches map[uint64]*clientSub // live watch subscriptions, by watch id
	dialed  bool                  // a connection has succeeded before (re-dials count as reconnects)

	// wmu serializes writers: each frame goes out in one Write call under
	// this lock, and the write deadline is scoped to it.
	wmu sync.Mutex
}

// get returns the live connection, dialing and handshaking if needed.
func (p *poolConn) get() (net.Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return p.conn, nil
	}
	if p.client.isClosed() {
		return nil, ErrClosed
	}
	conn, err := net.DialTimeout("tcp", p.client.addr, p.client.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, p.client.addr, err)
	}
	if err := clientHandshake(conn, p.client.opts.DialTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	if p.dialed {
		p.client.stats.Reconnects.Add(1)
	}
	p.dialed = true
	p.conn = conn
	p.pending = make(map[uint64]chan rpcResult)
	go p.readLoop(conn)
	return conn, nil
}

// clientHandshake sends the hello and validates the server's answer.
func clientHandshake(conn net.Conn, timeout time.Duration) error {
	conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(newHello().Frame()); err != nil {
		return fmt.Errorf("%w: handshake write: %v", ErrUnavailable, err)
	}
	body, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("%w: handshake read: %v", ErrUnavailable, err)
	}
	d := codec.NewDecoder(body)
	ver, ok, reason := readHello(d), d.Bool(), d.Str()
	if err := decodeErr(d); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: server version %d: %s", ErrVersionMismatch, ver, reason)
	}
	return nil
}

// readLoop demultiplexes responses until the connection dies, then fails
// every waiter. Responses for abandoned (timed-out) requests are dropped.
// Frames whose code byte is codeEvent are server pushes, routed to the watch
// subscription the id names instead of a pending request.
//
// Each frame is read into a pooled codec.Message that whoever decodes it
// releases: this loop for an event, the waiting call (rpcResult.finish) for a
// response. A response nobody waits for is dropped to the garbage collector,
// never pooled — its attempt may already have given up on the channel.
func (p *poolConn) readLoop(conn net.Conn) {
	frames := codec.NewFrameReader(conn, maxFrameBody)
	for {
		m, err := frames.Next()
		if err != nil {
			p.fail(conn, protoErr(err))
			return
		}
		p.client.stats.BytesRead.Add(int64(m.Len()))
		id, code := m.U64(), m.U8()
		if err := decodeErr(&m.Decoder); err != nil {
			p.fail(conn, err)
			return
		}
		if code == codeEvent {
			p.deliverEvent(id, &m.Decoder)
			m.Release()
			continue
		}
		p.mu.Lock()
		ch := p.pending[id]
		delete(p.pending, id)
		p.mu.Unlock()
		if ch != nil {
			ch <- rpcResult{code: code, m: m}
		}
	}
}

// deliverEvent decodes one pushed commit event and hands it to the watch
// subscription registered under id; events for unknown (already closed)
// watches are dropped, and a full subscription buffer coalesces the event
// like the in-process hub does.
func (p *poolConn) deliverEvent(id uint64, d *codec.Decoder) {
	ev := storage.CommitEvent{Table: d.Name(), Hash: d.Value(), Seq: d.U64()}
	if d.Err() != nil {
		return
	}
	// The send happens under p.mu so it can never race the close(ch) in
	// dropWatch/fail; it is non-blocking, so holding the lock is cheap.
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.watches[id]
	if w == nil || w.closed {
		return
	}
	select {
	case w.ch <- ev:
		p.client.metrics.WatchNotifies.Add(1)
	default:
		p.client.metrics.WatchDrops.Add(1)
	}
}

// fail tears down conn (if it is still the live one) and delivers err to
// every pending waiter.
func (p *poolConn) fail(conn net.Conn, err error) {
	p.mu.Lock()
	if p.conn != conn {
		p.mu.Unlock()
		return
	}
	p.conn = nil
	pending := p.pending
	p.pending = nil
	// Watch subscriptions die with their connection: closing the event
	// channel tells the consumer to resubscribe (or fall back to polling).
	for id, w := range p.watches {
		delete(p.watches, id)
		w.closed = true
		close(w.ch)
		p.client.metrics.WatchSubs.Add(-1)
	}
	p.mu.Unlock()
	conn.Close()
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	for _, ch := range pending {
		ch <- rpcResult{err: err}
	}
}

// close hangs up the connection and fails waiters with err.
func (p *poolConn) close(err error) {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		p.fail(conn, err)
	}
}

// attemptErr classifies one failed RPC attempt.
type attemptErr struct {
	err     error
	written bool // the request may have reached the server
}

func (a attemptErr) Error() string { return a.err.Error() }

// attempt runs one RPC attempt on this connection: write the request frame,
// wait for the matching response or the deadline.
//
// The response channel and the deadline timer come from a pool, and go back
// to it only when this attempt received on the channel: then the one send a
// registration can get (the read loop's, or fail's) is consumed and nobody
// else holds the channel. An attempt that timed out, or whose write failed,
// leaves its waiter to the garbage collector on purpose — the read loop may
// have fetched the channel from pending just before the delete and still
// send on it, and a recycled channel would hand that late response to some
// other call. (go.mod says go 1.24: a stopped-then-Reset timer cannot
// deliver a stale tick.)
func (p *poolConn) attempt(id uint64, frame []byte, timeout time.Duration) (rpcResult, error) {
	conn, err := p.get()
	if err != nil {
		return rpcResult{}, attemptErr{err: err, written: false}
	}
	p.mu.Lock()
	if p.conn != conn || p.pending == nil {
		p.mu.Unlock()
		return rpcResult{}, attemptErr{err: io.ErrUnexpectedEOF, written: false}
	}
	w := waiters.Get().(*waiter)
	p.pending[id] = w.ch
	p.mu.Unlock()

	// The frame is pre-encoded; serialize writers so records never
	// interleave. A write deadline keeps a wedged kernel buffer from
	// blocking past the attempt budget.
	p.client.stats.RPCs.Add(1)
	p.wmu.Lock()
	conn.SetWriteDeadline(time.Now().Add(timeout))
	_, werr := conn.Write(frame)
	conn.SetWriteDeadline(time.Time{})
	p.wmu.Unlock()
	if werr != nil {
		p.mu.Lock()
		if p.pending != nil {
			delete(p.pending, id)
		}
		p.mu.Unlock()
		p.fail(conn, werr)
		// A failed Write may still have delivered bytes the server acted
		// on; classify as possibly-written.
		return rpcResult{}, attemptErr{err: werr, written: true}
	}
	p.client.stats.BytesWritten.Add(int64(len(frame) - codec.FrameHeaderLen))

	w.timer.Reset(timeout)
	select {
	case res := <-w.ch:
		w.timer.Stop()
		waiters.Put(w)
		if res.err != nil {
			return rpcResult{}, attemptErr{err: res.err, written: true}
		}
		return res, nil
	case <-w.timer.C:
		p.mu.Lock()
		if p.pending != nil {
			delete(p.pending, id)
		}
		p.mu.Unlock()
		p.client.stats.Timeouts.Add(1)
		return rpcResult{}, attemptErr{err: fmt.Errorf("attempt timed out after %v", timeout), written: true}
	}
}

// idempotent reports whether op can be blindly retried after it may have
// executed. Reads and table-metadata calls always can; TransactWrite can
// because its request id deduplicates server-side; bare conditional writes
// cannot — a retry could observe its own first application and double-fire.
func idempotent(op byte) bool {
	switch op {
	case opPing, opGet, opGetProj, opQuery, opQueryIndex, opScan,
		opTableNames, opTableShards, opTableSchema, opTableBytes,
		opTableItemCount, opMetrics, opTransactWrite:
		return true
	}
	return false
}

// request encodes one request into e — [u64 id][u8 opcode] and the payload
// enc writes, if the opcode has one — and returns its id and finished frame.
// The frame is e's memory: the caller keeps e until it has stopped sending.
func (c *Client) request(e *codec.Encoder, op byte, enc func(*codec.Encoder)) (uint64, []byte, error) {
	id := c.reqSeq.Add(1)
	e.U64(id)
	e.U8(op)
	if enc != nil {
		enc(e)
	}
	return id, e.Frame(), protoErr(e.Err())
}

// call runs one RPC with retries: encode once, then attempt across the pool
// with linear backoff. Non-idempotent ops retry only while no attempt may
// have reached the server; exhausting the budget surfaces ErrUnavailable.
// A decoded server-side error (condition failure, missing table, …) is a
// result, not a failure — it returns immediately, never retried.
//
// call owns both buffers of the exchange: the encoder holding the request
// frame from here until it returns (a retry re-sends the frame, so not
// earlier), and the response body until dec has read the result out of it
// (rpcResult.finish). dec must not keep the decoder.
func (c *Client) call(op byte, enc func(*codec.Encoder), dec func(*codec.Decoder)) error {
	e := codec.GetEncoder()
	defer codec.PutEncoder(e)
	id, frame, err := c.request(e, op, enc)
	if err != nil {
		return err
	}

	var last attemptErr
	for try := 0; ; try++ {
		if c.isClosed() {
			return ErrClosed
		}
		if try > 0 {
			c.stats.Retries.Add(1)
			time.Sleep(time.Duration(try) * c.opts.RetryBackoff)
		}
		pc := c.pool[c.rr.Add(1)%uint64(len(c.pool))]
		start := time.Now()
		res, err := pc.attempt(id, frame, c.opts.OpTimeout)
		elapsed := time.Since(start)
		c.latency.Record(elapsed)
		if ext := c.extHist.Load(); ext != nil {
			ext.Record(elapsed)
		}
		if err == nil {
			return res.finish(dec)
		}
		last = err.(attemptErr)
		if errors.Is(last.err, ErrClosed) || errors.Is(last.err, ErrVersionMismatch) {
			return last.err
		}
		retriable := !last.written || idempotent(op)
		if !retriable || try >= c.opts.Retries {
			c.stats.Unavailable.Add(1)
			if errors.Is(last.err, ErrUnavailable) {
				return last.err
			}
			return fmt.Errorf("%w: %s after %d attempt(s): %v", ErrUnavailable, opName(op), try+1, last.err)
		}
	}
}

// --- storage.Backend surface ---

var _ storage.Backend = (*Client)(nil)

// CreateTable implements storage.Backend.
func (c *Client) CreateTable(schema storage.Schema) error {
	return c.call(opCreateTable, func(e *codec.Encoder) { e.Schema(schema) }, nil)
}

// DeleteTable implements storage.Backend.
func (c *Client) DeleteTable(name string) error {
	return c.call(opDeleteTable, func(e *codec.Encoder) { e.Str(name) }, nil)
}

// TableNames implements storage.Backend; an unreachable server reads as no
// tables, matching the signature's no-error contract.
func (c *Client) TableNames() []string {
	var names []string
	err := c.call(opTableNames, nil, func(d *codec.Decoder) {
		names = make([]string, d.Count())
		for i := range names {
			names[i] = d.Str()
		}
	})
	if err != nil {
		return nil
	}
	return names
}

// TableShards implements storage.Backend.
func (c *Client) TableShards(name string) (int, error) {
	return c.intRPC(opTableShards, name)
}

// TableBytes implements storage.Backend.
func (c *Client) TableBytes(name string) (int, error) {
	return c.intRPC(opTableBytes, name)
}

// TableItemCount implements storage.Backend.
func (c *Client) TableItemCount(name string) (int, error) {
	return c.intRPC(opTableItemCount, name)
}

func (c *Client) intRPC(op byte, name string) (n int, err error) {
	// A table's bytes may pass the bound Int puts on sizes that allocate.
	err = c.call(op, func(e *codec.Encoder) { e.Str(name) }, func(d *codec.Decoder) { n = int(d.Uvarint()) })
	if err != nil {
		return 0, err
	}
	return n, nil
}

// TableSchema implements storage.Backend.
func (c *Client) TableSchema(name string) (sch storage.Schema, err error) {
	err = c.call(opTableSchema, func(e *codec.Encoder) { e.Str(name) }, func(d *codec.Decoder) { sch = d.Schema() })
	if err != nil {
		return storage.Schema{}, err
	}
	return sch, nil
}

// Get implements storage.Backend.
func (c *Client) Get(table string, key storage.Key) (storage.Item, bool, error) {
	return c.get(opGet, table, key, nil)
}

// GetProj implements storage.Backend.
func (c *Client) GetProj(table string, key storage.Key, proj []storage.Path) (storage.Item, bool, error) {
	return c.get(opGetProj, table, key, proj)
}

func (c *Client) get(op byte, table string, key storage.Key, proj []storage.Path) (storage.Item, bool, error) {
	c.metrics.Ops[dynamo.OpGet].Add(1)
	var it storage.Item
	var ok bool
	err := c.call(op, func(e *codec.Encoder) {
		e.Str(table)
		e.Key(key)
		if op == opGetProj {
			e.Paths(proj)
		}
	}, func(d *codec.Decoder) {
		if ok = d.Bool(); ok {
			it = d.Item()
		}
	})
	if err != nil {
		return nil, false, err
	}
	return it, ok, nil
}

// Put implements storage.Backend.
func (c *Client) Put(table string, item storage.Item, cond storage.Cond) error {
	c.metrics.Ops[dynamo.OpPut].Add(1)
	return c.noteCond(c.call(opPut, func(e *codec.Encoder) {
		e.Str(table)
		e.Item(item)
		e.Cond(cond)
	}, nil))
}

// Update implements storage.Backend.
func (c *Client) Update(table string, key storage.Key, cond storage.Cond, updates ...storage.Update) error {
	c.metrics.Ops[dynamo.OpUpdate].Add(1)
	return c.noteCond(c.call(opUpdate, func(e *codec.Encoder) {
		e.Str(table)
		e.Key(key)
		e.Cond(cond)
		e.Updates(updates)
	}, nil))
}

// Delete implements storage.Backend.
func (c *Client) Delete(table string, key storage.Key, cond storage.Cond) error {
	c.metrics.Ops[dynamo.OpDelete].Add(1)
	return c.noteCond(c.call(opDelete, func(e *codec.Encoder) {
		e.Str(table)
		e.Key(key)
		e.Cond(cond)
	}, nil))
}

// noteCond mirrors condition failures into the client-side metrics.
func (c *Client) noteCond(err error) error {
	if err != nil && errors.Is(err, storage.ErrConditionFailed) {
		c.metrics.CondFailures.Add(1)
	}
	return err
}

// rows runs one row-returning RPC.
func (c *Client) rows(op byte, enc func(*codec.Encoder)) (rows []storage.Item, err error) {
	if err = c.call(op, enc, func(d *codec.Decoder) { rows = d.Items() }); err != nil {
		return nil, err
	}
	return rows, nil
}

// Query implements storage.Backend.
func (c *Client) Query(table string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	c.metrics.Ops[dynamo.OpQuery].Add(1)
	return c.rows(opQuery, func(e *codec.Encoder) {
		e.Str(table)
		e.Value(hash)
		e.QueryOpts(opts)
	})
}

// QueryIndex implements storage.Backend.
func (c *Client) QueryIndex(table, index string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	c.metrics.Ops[dynamo.OpQuery].Add(1)
	return c.rows(opQueryIndex, func(e *codec.Encoder) {
		e.Str(table)
		e.Str(index)
		e.Value(hash)
		e.QueryOpts(opts)
	})
}

// Scan implements storage.Backend.
func (c *Client) Scan(table string, opts storage.QueryOpts) ([]storage.Item, error) {
	c.metrics.Ops[dynamo.OpScan].Add(1)
	return c.rows(opScan, func(e *codec.Encoder) {
		e.Str(table)
		e.QueryOpts(opts)
	})
}

// TransactWrite implements storage.Backend. Every transaction carries a
// unique request id; the server's dedup window makes retry-after-ambiguity
// safe, so TransactWrite retries like a read even though it writes.
func (c *Client) TransactWrite(ops []storage.TxOp) error {
	c.metrics.Ops[dynamo.OpTxWrite].Add(1)
	var buf [64]byte // "<ClientID>-<n>", built here and appended into the request
	reqID := strconv.AppendUint(append(append(buf[:0], c.opts.ClientID...), '-'), c.txSeq.Add(1), 10)
	return c.noteCond(c.call(opTransactWrite, func(e *codec.Encoder) {
		e.Bytes(reqID)
		e.TxOps(ops)
	}, nil))
}

// Metrics implements storage.Backend with the client-side mirror counters
// (ops issued, condition failures observed). ServerMetrics fetches the
// server's authoritative counters.
func (c *Client) Metrics() *storage.Metrics { return &c.metrics }

// ServerMetrics fetches the server backend's own metrics snapshot.
func (c *Client) ServerMetrics() (snap dynamo.Snapshot, err error) {
	err = c.call(opMetrics, nil, func(d *codec.Decoder) { snap, _ = decodeMetrics(d) })
	if err != nil {
		return dynamo.Snapshot{}, err
	}
	return snap, nil
}
