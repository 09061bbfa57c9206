package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/codec"
)

// dedupCapacity is how many TransactWrite request ids the server
// remembers for retry deduplication; the oldest evicts first. The window
// only needs to outlive a client's retry budget (a few seconds), so a few
// thousand entries cover even a hot cluster.
const dedupCapacity = 4096

// ServeOptions configure a Server.
type ServeOptions struct {
	// Delay artificially delays every request before execution — the
	// simulated network RTT knob bench.RemoteCells turns to place the
	// storage plane at cloud distances.
	Delay time.Duration
	// Logf, when set, receives connection-level diagnostics (handshake
	// refusals, protocol errors). Nil means silent.
	Logf func(format string, args ...any)
}

// ServerStats counts a server's wire traffic; fields are atomic and may be
// read live (register Snapshot with the telemetry registry).
type ServerStats struct {
	// Conns counts accepted connections; Handshakes counts the ones that
	// completed version negotiation.
	Conns      atomic.Int64
	Handshakes atomic.Int64
	// RPCs counts requests executed; Errors the ones that returned an error
	// to the client (condition failures included).
	RPCs   atomic.Int64
	Errors atomic.Int64
	// DedupHits counts TransactWrite retries answered from the dedup
	// window without re-applying.
	DedupHits atomic.Int64
	// ProtocolErrors counts connections killed by framing violations.
	ProtocolErrors atomic.Int64
	// BytesRead and BytesWritten count frame bodies in each direction.
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// ServerStatsSnapshot is a point-in-time copy of ServerStats, in the plain
// shape the telemetry registry flattens.
type ServerStatsSnapshot struct {
	Conns          int64
	Handshakes     int64
	RPCs           int64
	Errors         int64
	DedupHits      int64
	ProtocolErrors int64
	BytesRead      int64
	BytesWritten   int64
}

// Snapshot copies the counters.
func (s *ServerStats) Snapshot() ServerStatsSnapshot {
	return ServerStatsSnapshot{
		Conns:          s.Conns.Load(),
		Handshakes:     s.Handshakes.Load(),
		RPCs:           s.RPCs.Load(),
		Errors:         s.Errors.Load(),
		DedupHits:      s.DedupHits.Load(),
		ProtocolErrors: s.ProtocolErrors.Load(),
		BytesRead:      s.BytesRead.Load(),
		BytesWritten:   s.BytesWritten.Load(),
	}
}

// Server exposes one storage.Backend over the wire protocol. Create with
// NewServer, then Serve one or more listeners; Close stops them all and
// hangs up every connection.
type Server struct {
	backend storage.Backend
	doer    storage.Doer // backend's data plane
	opts    ServeOptions
	dedup   *dedupWindow
	stats   ServerStats

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewServer wraps backend in a wire-protocol server.
func NewServer(backend storage.Backend, opts ServeOptions) *Server {
	return &Server{
		backend:   backend,
		doer:      storage.DoerOf(backend),
		opts:      opts,
		dedup:     &dedupWindow{entries: make(map[string]*dedupEntry, dedupCapacity)},
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve exposes backend on lis with default options, blocking until the
// listener fails or is closed — the one-call server the storaged binary and
// in-test fixtures build on.
func Serve(backend storage.Backend, lis net.Listener) error {
	return NewServer(backend, ServeOptions{}).Serve(lis)
}

// Stats exposes the server's live wire counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// Serve accepts connections on lis until the listener errors or the server
// closes. It returns nil after Close, the accept error otherwise. Multiple
// listeners may be served concurrently.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return ErrClosed
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
		lis.Close()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.stats.Conns.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops every listener, hangs up every connection, and waits for
// in-flight handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for lis := range s.listeners {
		lis.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// serveConn handshakes, then serves the connection's pipelined requests
// leader/follower (see lead); responses interleave in completion order,
// matched by request id. It runs on the goroutine Serve started, counted in
// s.wg until the connection's last goroutine is gone.
func (s *Server) serveConn(conn net.Conn) {
	if err := s.handshake(conn); err != nil {
		s.stats.ProtocolErrors.Add(1)
		s.logf("remote: handshake with %s: %v", conn.RemoteAddr(), err)
		s.hangUp(conn)
		return
	}
	s.stats.Handshakes.Add(1)
	c := &serverConn{
		pctx:   pushCtx{conn: conn, watches: make(map[uint64]storage.Subscription)},
		frames: codec.NewFrameReader(conn, maxFrameBody),
		wake:   make(chan struct{}, 1),
	}
	c.pctx.handlers.Add(1)
	s.lead(c)
}

// hangUp closes conn and forgets it: the end of serveConn's count in s.wg.
func (s *Server) hangUp(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// A serverConn is one connection's request side, served leader/follower: the
// goroutine holding the read side (the leader) reads one request, hands the
// read side to the connection's idle goroutine — or starts one if none is
// idle — and then runs the request itself. A goroutine whose request is done
// becomes the idle one, or exits if another already is, so the connection
// holds its leader, one goroutine per request in flight and at most one idle
// goroutine. Requests still run concurrently, and one that is slow in the
// backend never holds up the next read; but in the steady state of a client
// waiting for each reply, the request runs on the goroutine that read it and
// no goroutine is started.
type serverConn struct {
	pctx   pushCtx
	frames *codec.FrameReader // the leader's: handing over lead passes it on

	idle atomic.Bool // a goroutine is parked on wake, or about to be
	// wake hands the read side to the idle goroutine: at most one token is
	// ever in it, because only the leader sends and the token is the lead.
	// The leader whose read fails closes it, releasing the idle goroutine.
	wake chan struct{}
}

// handOff passes the read side on: to the idle goroutine, or to a new one.
func (s *Server) handOff(c *serverConn) {
	if c.idle.CompareAndSwap(true, false) {
		c.wake <- struct{}{}
		return
	}
	c.pctx.handlers.Add(1)
	go s.lead(c)
}

// park makes a goroutine whose request is done the connection's idle one and
// waits for the lead: true once it holds the read side, false — exit — when
// another goroutine is already idle or the read side has failed.
func (c *serverConn) park() bool {
	if !c.idle.CompareAndSwap(false, true) {
		return false
	}
	_, ok := <-c.wake
	return ok
}

// lead runs one goroutine of c, counted in c.pctx.handlers: it reads a
// request while it holds the read side, hands the read side on, runs the
// request, and parks to lead again. The goroutine whose read fails tears the
// connection down.
func (s *Server) lead(c *serverConn) {
	for {
		m, err := c.frames.Next()
		if err != nil {
			if err = protoErr(err); err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.stats.ProtocolErrors.Add(1)
				s.logf("remote: conn %s: %v", c.pctx.conn.RemoteAddr(), err)
			}
			s.tearDown(c)
			return
		}
		s.stats.BytesRead.Add(int64(m.Len()))
		id, op := m.U64(), m.U8()
		if m.Err() != nil {
			s.stats.ProtocolErrors.Add(1)
			s.tearDown(c)
			return
		}
		s.handOff(c)
		if s.opts.Delay > 0 {
			time.Sleep(s.opts.Delay)
		}
		s.dispatch(&c.pctx, id, op, m)
		if !c.park() {
			c.pctx.handlers.Done()
			return
		}
	}
}

// tearDown ends a connection whose read side failed, on the goroutine that
// last held it: it releases the idle goroutine, closes the watches — which
// unblocks their pushers — waits for every other goroutine of the connection,
// requests in flight included, and hangs up.
func (s *Server) tearDown(c *serverConn) {
	close(c.wake)
	c.pctx.closeAll()
	c.pctx.handlers.Done()
	c.pctx.handlers.Wait()
	s.hangUp(c.pctx.conn)
}

// send frames e's body in place and writes it in one Write call under the
// connection's write lock, so responses and events leave as whole frames.
func (s *Server) send(pctx *pushCtx, e *codec.Encoder) error {
	frame := e.Frame()
	pctx.writeMu.Lock()
	_, err := pctx.conn.Write(frame)
	pctx.writeMu.Unlock()
	if err == nil {
		s.stats.BytesWritten.Add(int64(e.Len()))
	}
	return err
}

// pushCtx is one connection's server-push state: the write lock every frame
// (response or event) goes out under, and the live watch subscriptions keyed
// by the client-chosen watch id.
type pushCtx struct {
	conn     net.Conn
	writeMu  sync.Mutex
	handlers sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	watches map[uint64]storage.Subscription
}

// add registers sub under id; false when the connection is shutting down or
// the id is already taken (the caller closes sub).
func (p *pushCtx) add(id uint64, sub storage.Subscription) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if _, dup := p.watches[id]; dup {
		return false
	}
	p.watches[id] = sub
	return true
}

// remove unregisters and returns the subscription at id, nil if absent.
func (p *pushCtx) remove(id uint64) storage.Subscription {
	p.mu.Lock()
	defer p.mu.Unlock()
	sub := p.watches[id]
	delete(p.watches, id)
	return sub
}

// closeAll tears down every live subscription on connection shutdown,
// unblocking the pusher goroutines.
func (p *pushCtx) closeAll() {
	p.mu.Lock()
	p.closed = true
	subs := make([]storage.Subscription, 0, len(p.watches))
	for _, sub := range p.watches {
		subs = append(subs, sub)
	}
	p.watches = nil
	p.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// pushEvents streams one subscription's commit events to the client as
// codeEvent frames until the subscription closes (unwatch, connection
// teardown, or backend shutdown) or the connection stops accepting writes.
func (s *Server) pushEvents(pctx *pushCtx, watchID uint64, sub storage.Subscription) {
	defer pctx.handlers.Done()
	e := codec.GetEncoder() // this subscription's, reset once send has returned
	defer codec.PutEncoder(e)
	for ev := range sub.Events() {
		e.Reset()
		e.U64(watchID)
		e.U8(codeEvent)
		e.Str(ev.Table)
		e.Value(ev.Hash)
		e.U64(ev.Seq)
		if s.send(pctx, e) != nil {
			pctx.remove(watchID)
			sub.Close()
			return
		}
	}
}

// handshake validates the client hello and answers with the server's
// version; a mismatch is answered (so the client can report it) and the
// connection dropped.
func (s *Server) handshake(conn net.Conn) error {
	body, err := readFrame(conn)
	if err != nil {
		return err
	}
	d := codec.NewDecoder(body)
	ver := readHello(d)
	if err := decodeErr(d); err != nil {
		return err
	}
	e := newHello()
	if ver != Version {
		e.Bool(false)
		e.Str(fmt.Sprintf("server speaks version %d, client sent %d", Version, ver))
		conn.Write(e.Frame())
		return fmt.Errorf("%w: client version %d", ErrVersionMismatch, ver)
	}
	e.Bool(true)
	e.Str("")
	_, err = conn.Write(e.Frame())
	return err
}

// dispatch executes one request and sends the response: [u64 id][u8 code]
// and then what handle wrote behind them, or — cut back to the id — the
// structured error it returned. It owns both buffers of the exchange until it
// returns, with send done: the request m (nothing handle passed to the
// backend aliases the body) and the response's encoder.
func (s *Server) dispatch(pctx *pushCtx, id uint64, op byte, m *codec.Message) {
	s.stats.RPCs.Add(1)
	defer m.Release()
	e := codec.GetEncoder()
	defer codec.PutEncoder(e)
	e.U64(id)
	mark := e.Len()
	e.U8(codeOK)
	if err := s.handle(pctx, op, &m.Decoder, e); err != nil {
		s.stats.Errors.Add(1)
		if errors.Is(err, ErrProtocol) {
			s.stats.ProtocolErrors.Add(1)
		}
		e.Truncate(mark)
		encodeError(e, err)
	}
	s.send(pctx, e)
}

// handle decodes one request payload from d, runs it against the backend,
// and encodes the result payload into e. Each opcode reads its whole payload
// and checks it once, before the backend sees any of it; whatever is in e
// when an error is returned, dispatch cuts away.
func (s *Server) handle(pctx *pushCtx, op byte, d *codec.Decoder, e *codec.Encoder) error {
	switch op {
	case opPing:
		return nil

	case opCreateTable:
		sch := d.Schema()
		if err := decodeErr(d); err != nil {
			return err
		}
		return s.backend.CreateTable(sch)

	case opDeleteTable:
		name := d.Name()
		if err := decodeErr(d); err != nil {
			return err
		}
		return s.backend.DeleteTable(name)

	case opTableNames:
		names := s.backend.TableNames()
		e.Int(len(names))
		for _, n := range names {
			e.Str(n)
		}
		return nil

	case opTableShards, opTableBytes, opTableItemCount:
		name := d.Name()
		if err := decodeErr(d); err != nil {
			return err
		}
		var n int
		var err error
		switch op {
		case opTableShards:
			n, err = s.backend.TableShards(name)
		case opTableBytes:
			n, err = s.backend.TableBytes(name)
		default:
			n, err = s.backend.TableItemCount(name)
		}
		e.Int(n)
		return err

	case opTableSchema:
		name := d.Name()
		if err := decodeErr(d); err != nil {
			return err
		}
		sch, err := s.backend.TableSchema(name)
		e.Schema(sch)
		return err

	case opMetrics:
		encodeMetrics(e, s.backend.Metrics().Snapshot())
		return nil

	case opWatch:
		watchID, table, hash := d.U64(), d.Name(), d.Value()
		if err := decodeErr(d); err != nil {
			return err
		}
		w, ok := s.backend.(storage.Watcher)
		if !ok {
			return fmt.Errorf("remote: backend %T does not support watch", s.backend)
		}
		sub, err := w.Watch(table, hash)
		if err != nil {
			return err
		}
		if !pctx.add(watchID, sub) {
			sub.Close()
			return fmt.Errorf("%w: watch id %d rejected (duplicate or connection closing)", ErrProtocol, watchID)
		}
		pctx.handlers.Add(1)
		go s.pushEvents(pctx, watchID, sub)
		return nil

	case opUnwatch:
		watchID := d.U64()
		if err := decodeErr(d); err != nil {
			return err
		}
		if sub := pctx.remove(watchID); sub != nil {
			sub.Close()
		}
		return nil
	}
	return s.do(op, d, e)
}

// do runs one data-plane request: its payload decodes to an Op, which the
// backend runs, and its result is encoded. A transaction with a request id
// runs once per id within the dedup window.
func (s *Server) do(code byte, d *codec.Decoder, e *codec.Encoder) error {
	op, reqID, ok := decodeOp(code, d)
	if !ok {
		return fmt.Errorf("%w: unknown opcode %d", ErrProtocol, code)
	}
	if err := decodeErr(d); err != nil {
		return err
	}
	if reqID != "" {
		txErr, hit := s.dedup.do(reqID, func() error {
			_, err := s.doer.Do(op)
			return err
		})
		if hit {
			s.stats.DedupHits.Add(1)
		}
		return txErr
	}
	r, err := s.doer.Do(op)
	encodeResult(e, op.Kind, r)
	return err
}

// dedupWindow remembers the last dedupCapacity TransactWrite request
// ids and their outcomes. A retried id returns the recorded outcome without
// re-applying;
// a retry racing the original execution waits for it — the property that
// makes "retry after ambiguous timeout" safe for the conditional
// transactions every fencing guarantee rides on.
type dedupWindow struct {
	mu      sync.Mutex
	entries map[string]*dedupEntry
	order   []string // insertion order, for FIFO eviction
}

type dedupEntry struct {
	done chan struct{}
	err  error
}

// do executes fn exactly once per id within the window, returning fn's
// recorded outcome and whether this call was answered by deduplication.
func (w *dedupWindow) do(id string, fn func() error) (error, bool) {
	w.mu.Lock()
	if ent, ok := w.entries[id]; ok {
		w.mu.Unlock()
		<-ent.done
		return ent.err, true
	}
	ent := &dedupEntry{done: make(chan struct{})}
	w.entries[id] = ent
	w.order = append(w.order, id)
	if len(w.order) > dedupCapacity {
		evict := w.order[0]
		w.order = w.order[1:]
		delete(w.entries, evict)
	}
	w.mu.Unlock()

	ent.err = fn()
	close(ent.done)
	return ent.err, false
}
