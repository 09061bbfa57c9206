package remote

// Fault-injection tests for the wire: torn and corrupt frames, handshake
// version skew, mid-RPC server kill and restart, ambiguous TransactWrite
// retries resolved by request-id dedup, and retry-budget exhaustion
// surfacing ErrUnavailable. Everything runs over real loopback TCP.

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/storage/codec"
)

// hookBackend wraps a backend with per-op interception hooks.
type hookBackend struct {
	storage.Backend
	txCalls   atomic.Int64
	beforeTx  func(n int64) // called with the 1-based call number
	beforeGet func()
}

func (h *hookBackend) TransactWrite(ops []storage.TxOp) error {
	n := h.txCalls.Add(1)
	if h.beforeTx != nil {
		h.beforeTx(n)
	}
	return h.Backend.TransactWrite(ops)
}

func (h *hookBackend) Get(table string, key storage.Key) (storage.Item, bool, error) {
	if h.beforeGet != nil {
		h.beforeGet()
	}
	return h.Backend.Get(table, key)
}

func (h *hookBackend) Put(table string, item storage.Item, cond storage.Cond) error {
	if h.beforeGet != nil {
		h.beforeGet()
	}
	return h.Backend.Put(table, item, cond)
}

// startServer serves backend on a fresh loopback listener and returns the
// server and its address. Cleanup closes the server.
func startServer(t *testing.T, b storage.Backend, opts ServeOptions) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b, opts)
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

func mustDial(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func seedTable(t *testing.T, b storage.Backend) {
	t.Helper()
	if err := b.CreateTable(storage.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServerSurvivesGarbage: raw garbage, torn frames, and corrupt CRCs
// kill only the offending connection; the server keeps serving well-formed
// clients.
func TestServerSurvivesGarbage(t *testing.T) {
	store := dynamo.NewStore()
	srv, addr := startServer(t, store, ServeOptions{})
	seedTable(t, store)

	poison := []func(c net.Conn){
		// Garbage instead of a handshake.
		func(c net.Conn) { c.Write([]byte("GET / HTTP/1.1\r\n\r\n")) },
		// A frame with an absurd length prefix.
		func(c net.Conn) { c.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}) },
		// A well-formed header whose body never arrives (torn frame).
		func(c net.Conn) {
			hello := newHello().Frame()
			c.Write(hello[:len(hello)-2])
		},
		// A valid handshake, then a frame whose CRC lies.
		func(c net.Conn) {
			c.Write(newHello().Frame())
			readFrame(c) // server hello
			frame := frameOf([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
			frame[codec.FrameHeaderLen+3] ^= 0x80 // corrupt after checksumming
			c.Write(frame)
		},
	}
	for i, p := range poison {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("poison %d: %v", i, err)
		}
		p(conn)
		conn.Close()
	}

	// The server must still answer a well-formed client.
	client := mustDial(t, addr, Options{})
	it, ok, err := client.Get("t", dynamo.HK(dynamo.S("a")))
	if err != nil || !ok || it["V"].Int() != 1 {
		t.Fatalf("Get after poison = %v %v %v", it, ok, err)
	}
	if got := srv.Stats().ProtocolErrors.Load(); got < 3 {
		t.Errorf("ProtocolErrors = %d, want >= 3", got)
	}

	// CRC-valid requests whose payload nests 4 Mi levels deep — 8 MiB, well
	// inside maxFrameBody, hand-built because no encoder survives building
	// them. The decoder recursed once per level until the runtime killed the
	// whole server with "fatal error: stack overflow"; now each is a bad
	// request like any other undecodable payload.
	const depth = 4 << 20
	deep := map[string]func(e *codec.Encoder){
		"put whose item nests": func(e *codec.Encoder) {
			e.U8(opPut)
			e.Str("t")
			e.Int(1) // one attribute
			e.Str("K")
			e.Raw(string(bytes.Repeat([]byte{byte(dynamo.KindList), 1}, depth)))
			e.U8(byte(dynamo.KindNull))
			e.Cond(nil)
		},
		"update whose condition nests": func(e *codec.Encoder) {
			e.U8(opUpdate)
			e.Str("t")
			e.Key(dynamo.HK(dynamo.S("a")))
			e.U8(1)                                          // a condition follows
			e.Raw(string(bytes.Repeat([]byte{7, 1}, depth))) // NOT, one child
			e.U8(1)                                          // TRUE
			e.Updates(nil)
		},
	}
	for name, payload := range deep {
		before := srv.Stats().ProtocolErrors.Load()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		conn.Write(newHello().Frame())
		readFrame(conn) // server hello
		e := codec.NewEncoder(2*depth + 64)
		e.U64(7)
		payload(e)
		conn.Write(e.Frame())
		body, err := readFrame(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: no reply: %v", name, err)
		}
		d := codec.NewDecoder(body)
		if id, code := d.U64(), d.U8(); id != 7 || code != codeBadRequest {
			t.Errorf("%s: reply id %d code %d, want a bad request", name, id, code)
		}
		if got := srv.Stats().ProtocolErrors.Load(); got <= before {
			t.Errorf("%s: ProtocolErrors stayed at %d", name, got)
		}
		if _, ok, err := client.Get("t", dynamo.HK(dynamo.S("a"))); err != nil || !ok {
			t.Errorf("%s: Get from another client afterwards = %v %v", name, ok, err)
		}
	}
}

// TestHandshakeVersionMismatch: skewed peers refuse each other with
// ErrVersionMismatch, in both directions.
func TestHandshakeVersionMismatch(t *testing.T) {
	_, addr := startServer(t, dynamo.NewStore(), ServeOptions{})

	// Client from the future: server answers refusal, closes.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	future := func() *codec.Encoder {
		e := codec.NewEncoder(32)
		e.Raw(Magic)
		e.U16(Version + 7)
		return e
	}
	if _, err := conn.Write(future().Frame()); err != nil {
		t.Fatal(err)
	}
	body, err := readFrame(conn)
	if err != nil {
		t.Fatalf("refusal frame: %v", err)
	}
	d := codec.NewDecoder(body)
	if ver, ok := readHello(d), d.Bool(); d.Err() != nil || ver != Version || ok {
		t.Errorf("server answered a future protocol version with version %d, accepted %v (%v)", ver, ok, d.Err())
	}

	// Server from the future: Dial fails with ErrVersionMismatch.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		readFrame(c)
		e := future()
		e.Bool(false)
		e.Str("too new")
		c.Write(e.Frame())
	}()
	if _, err := Dial(lis.Addr().String(), Options{Retries: -1}); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("dial future server: %v", err)
	}
}

// TestClientReconnectAfterServerRestart: killing the server mid-session
// breaks every pooled connection; a restarted server on the same address is
// picked up transparently by retryable ops.
func TestClientReconnectAfterServerRestart(t *testing.T) {
	store := dynamo.NewStore()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	srv1 := NewServer(store, ServeOptions{})
	go srv1.Serve(lis)
	seedTable(t, store)

	// One pooled connection so the restart demonstrably breaks and re-dials
	// the same slot.
	client := mustDial(t, addr, Options{PoolSize: 1, Retries: 5, RetryBackoff: 20 * time.Millisecond})
	if _, ok, err := client.Get("t", dynamo.HK(dynamo.S("a"))); !ok || err != nil {
		t.Fatalf("pre-restart Get: %v %v", ok, err)
	}

	// Kill the server (listener and all conns), then restart on the same
	// address over the same backend — the store surviving is exactly the
	// independent-failure assumption the paper makes of DynamoDB.
	srv1.Close()
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen %s: %v", addr, err)
	}
	srv2 := NewServer(store, ServeOptions{})
	go srv2.Serve(lis2)
	defer srv2.Close()

	it, ok, err := client.Get("t", dynamo.HK(dynamo.S("a")))
	if err != nil || !ok || it["V"].Int() != 1 {
		t.Fatalf("post-restart Get = %v %v %v", it, ok, err)
	}
	if client.Stats().Reconnects.Load() == 0 {
		t.Error("no reconnects recorded across a server restart")
	}
	// Conditional writes work again too (fresh connection, not ambiguous).
	if err := client.Put("t", storage.Item{"K": dynamo.S("b")}, dynamo.NotExists(dynamo.A("K"))); err != nil {
		t.Errorf("post-restart conditional put: %v", err)
	}
}

// TestWaiterResubscribesAfterServerRestart: a storage.Waiter over the wire
// loses its subscription with its connection when the server restarts. The
// wait in progress runs out its timer, and the next arm subscribes on a
// fresh connection, so commits wake it again.
func TestWaiterResubscribesAfterServerRestart(t *testing.T) {
	store := dynamo.NewStore()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	srv1 := NewServer(store, ServeOptions{})
	go srv1.Serve(lis)
	seedTable(t, store)
	client := mustDial(t, addr, Options{PoolSize: 1, Retries: 5, RetryBackoff: 20 * time.Millisecond})
	w := storage.NewWaiter(client, "t", dynamo.Null, clock.Real{})
	defer w.Close()
	wakesOnCommit := func() bool {
		t.Helper()
		if !w.Arm() {
			return false
		}
		if err := store.Put("t", storage.Item{"K": dynamo.S("b")}, nil); err != nil {
			t.Fatal(err)
		}
		return w.Wait(200*time.Millisecond, nil, nil) == storage.WakeEvent
	}
	if !wakesOnCommit() {
		t.Fatal("a commit did not wake the waiter before the restart")
	}

	srv1.Close()
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen %s: %v", addr, err)
	}
	srv2 := NewServer(store, ServeOptions{})
	go srv2.Serve(lis2)
	defer srv2.Close()
	// The first round may still hold the dead subscription if the client has
	// not seen its connection close yet; the one after it must not.
	if !wakesOnCommit() && !wakesOnCommit() {
		t.Error("the waiter did not subscribe again after its connection was lost")
	}
}

// TestAmbiguousTransactWriteDedup: a TransactWrite whose response is lost
// to a timeout is retried under the same request id, and the server's
// dedup window coalesces the retry onto the original execution — applied
// exactly once, which is what makes fenced claims safe to retry.
func TestAmbiguousTransactWriteDedup(t *testing.T) {
	inner := dynamo.NewStore()
	hb := &hookBackend{Backend: inner}
	hb.beforeTx = func(n int64) {
		if n == 1 {
			// Outlive the client's attempt budget so the first response is
			// abandoned; the retry arrives while this is still running.
			time.Sleep(300 * time.Millisecond)
		}
	}
	srv, addr := startServer(t, hb, ServeOptions{})
	seedTable(t, inner)

	client := mustDial(t, addr, Options{
		OpTimeout:    200 * time.Millisecond,
		Retries:      3,
		RetryBackoff: 10 * time.Millisecond,
	})
	err := client.TransactWrite([]storage.TxOp{{
		Table: "t", Key: dynamo.HK(dynamo.S("a")),
		Cond:    dynamo.Eq(dynamo.A("V"), dynamo.NInt(1)),
		Updates: []storage.Update{dynamo.Add(dynamo.A("V"), 1)},
	}})
	if err != nil {
		t.Fatalf("retried TransactWrite: %v", err)
	}
	if got := hb.txCalls.Load(); got != 1 {
		t.Errorf("backend applied the transaction %d times, want 1", got)
	}
	if client.Stats().Retries.Load() == 0 {
		t.Error("no retry recorded for the ambiguous transaction")
	}
	if srv.Stats().DedupHits.Load() == 0 {
		t.Error("no dedup hit recorded server-side")
	}
	// The increment landed exactly once.
	it, _, err := client.Get("t", dynamo.HK(dynamo.S("a")))
	if err != nil || it["V"].Int() != 2 {
		t.Errorf("V = %v (%v), want 2", it["V"], err)
	}
}

// TestRetryBudgetExhausted: a server that never answers drains the retry
// budget and surfaces typed ErrUnavailable on reads; a bare conditional
// write fails fast on its first ambiguous attempt instead of retrying.
func TestRetryBudgetExhausted(t *testing.T) {
	inner := dynamo.NewStore()
	unblock := make(chan struct{})
	hb := &hookBackend{Backend: inner, beforeGet: func() { <-unblock }}
	srv, addr := startServer(t, hb, ServeOptions{})
	seedTable(t, inner)
	t.Cleanup(func() { close(unblock); srv.Close() })

	client := mustDial(t, addr, Options{
		OpTimeout:    50 * time.Millisecond,
		Retries:      2,
		RetryBackoff: 5 * time.Millisecond,
	})

	_, _, err := client.Get("t", dynamo.HK(dynamo.S("a")))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Get against a hung server: %v, want ErrUnavailable", err)
	}
	if got := client.Stats().Timeouts.Load(); got != 3 {
		t.Errorf("Timeouts = %d, want 3 (initial + 2 retries)", got)
	}

	// Put is not idempotent: one ambiguous attempt, no blind retry.
	before := client.Stats().RPCs.Load()
	err = client.Put("t", storage.Item{"K": dynamo.S("x")}, dynamo.NotExists(dynamo.A("K")))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put against a hung server: %v, want ErrUnavailable", err)
	}
	if attempts := client.Stats().RPCs.Load() - before; attempts != 1 {
		t.Errorf("conditional Put made %d attempts, want 1 (fail fast)", attempts)
	}
}

// TestDialUnreachable: dialing a dead address is typed ErrUnavailable.
func TestDialUnreachable(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	if _, err := Dial(addr, Options{Retries: -1, RetryBackoff: time.Millisecond, DialTimeout: 200 * time.Millisecond}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("dial dead address: %v, want ErrUnavailable", err)
	}
}

// TestClosedClient: operations after Close return ErrClosed, not a retry
// loop.
func TestClosedClient(t *testing.T) {
	store := dynamo.NewStore()
	_, addr := startServer(t, store, ServeOptions{})
	seedTable(t, store)
	client, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, _, err := client.Get("t", dynamo.HK(dynamo.S("a"))); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on closed client: %v", err)
	}
}

// TestServerSurvivesHugeShardCount: a CreateTable whose schema asks for 1<<40
// shards is one well-formed, CRC-valid 40-byte frame (hand-built: no encoder
// is handed such an int). It used to decode cleanly and reach dynamo's
// make([]*shard, n): "fatal error: runtime: out of memory", the whole server
// gone. Now the decoder refuses the int, the request is answered as a bad
// request, and the same connection goes on being served. A count the decoder
// can carry but no table should have is refused by the backend instead.
func TestServerSurvivesHugeShardCount(t *testing.T) {
	srv, addr := startServer(t, dynamo.NewStore(), ServeOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	conn.Write(newHello().Frame())
	readFrame(conn) // server hello

	before := srv.Stats().Snapshot()
	e := codec.NewEncoder(64)
	e.U64(7)
	e.U8(opCreateTable)
	e.Str("t")
	e.Str("K")
	e.Str("")
	e.Int(0)
	e.Uvarint(1 << 40) // shards
	e.Int(0)
	conn.Write(e.Frame())
	body, err := readFrame(conn)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	d := codec.NewDecoder(body)
	if id, code := d.U64(), d.U8(); id != 7 || code != codeBadRequest {
		t.Errorf("reply id %d code %d, want a bad request", id, code)
	}
	after := srv.Stats().Snapshot()
	if after.ProtocolErrors != before.ProtocolErrors+1 || after.Errors != before.Errors+1 {
		t.Errorf("protocol errors %d → %d, errors %d → %d; want +1 each",
			before.ProtocolErrors, after.ProtocolErrors, before.Errors, after.Errors)
	}

	// The next request on the same connection is served.
	e = codec.NewEncoder(64)
	e.U64(8)
	e.U8(opTableNames)
	conn.Write(e.Frame())
	if body, err = readFrame(conn); err != nil {
		t.Fatalf("the connection died with the bad request: %v", err)
	}
	d = codec.NewDecoder(body)
	if id, code, n := d.U64(), d.U8(), d.Count(); id != 8 || code != codeOK || n != 0 || d.Err() != nil {
		t.Errorf("TableNames afterwards: id %d code %d, %d tables (%v)", id, code, n, d.Err())
	}

	client := mustDial(t, addr, Options{})
	err = client.CreateTable(storage.Schema{Name: "t", HashKey: "K", Shards: dynamo.MaxShards + 1})
	if err == nil || errors.Is(err, ErrProtocol) || errors.Is(err, ErrUnavailable) {
		t.Errorf("CreateTable with %d shards = %v, want the backend's refusal", dynamo.MaxShards+1, err)
	}
	if names := client.TableNames(); len(names) != 0 {
		t.Errorf("tables after two refused creates: %v", names)
	}
}
