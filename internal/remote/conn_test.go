package remote

// Connection-lifecycle tests for the server's leader/follower reading: a
// request slow in the backend or held by ServeOptions.Delay never holds up the
// next one on the same connection, a connection keeps at most its reader and
// one idle goroutine once its requests are done, and nothing of the server
// outlives Server.Close or a client that hangs up mid-burst. Every client here
// has one connection, so every request shares it.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// blockingBackend parks every Update until release is closed and, when gate
// is set, every Get until gate is closed; entered receives one value per call
// that reached it.
type blockingBackend struct {
	storage.Backend
	release chan struct{}
	gate    chan struct{}
	entered chan struct{}
	opened  sync.Once
}

// open closes the gate; a test registers it as a cleanup too, so that a
// server closed after a failed test is not left waiting on parked calls.
func (b *blockingBackend) open() { b.opened.Do(func() { close(b.gate) }) }

func (b *blockingBackend) Update(table string, key storage.Key, cond storage.Cond, ups ...storage.Update) error {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.Update(table, key, cond, ups...)
}

func (b *blockingBackend) Get(table string, key storage.Key) (storage.Item, bool, error) {
	if b.gate != nil {
		b.entered <- struct{}{}
		<-b.gate
	}
	return b.Backend.Get(table, key)
}

// awaitEntered waits for n calls to reach b, failing the test if they do not
// within seconds: requests queued behind each other never all arrive.
func awaitEntered(t *testing.T, b *blockingBackend, n int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for i := range n {
		select {
		case <-b.entered:
		case <-timeout:
			t.Fatalf("%d of %d requests reached the backend together", i, n)
		}
	}
}

// serverGoroutines counts the goroutines running a method of Server, the
// accept loop counted only when withAccept is set.
func serverGoroutines(withAccept bool) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		server, accept := false, false
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "created by ") {
				continue
			}
			if strings.Contains(line, "internal/remote.(*Server).") {
				server = true
				accept = accept || strings.Contains(line, "(*Server).Serve(")
			}
		}
		if server && (withAccept || !accept) {
			count++
		}
	}
	return count
}

// waitForServerGoroutines polls until at most want server goroutines are
// left, and fails the test with the count it last saw if that takes seconds.
func waitForServerGoroutines(t *testing.T, want int, withAccept bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := serverGoroutines(withAccept)
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d server goroutines left, want at most %d", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// burst issues n concurrent Gets of the seeded row on c and waits for them;
// it returns how many failed.
func burst(c *Client, n int) int64 {
	var failed atomic.Int64
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok, err := c.Get("t", dynamo.HK(dynamo.S("a"))); err != nil || !ok {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	return failed.Load()
}

// TestConnBlockedRequestDoesNotHoldUpTheNext: an Update parked in the backend
// holds its own goroutine, not the connection; a Get sent after it on the same
// connection is answered while it is still parked.
func TestConnBlockedRequestDoesNotHoldUpTheNext(t *testing.T) {
	store := dynamo.NewStore()
	seedTable(t, store)
	b := &blockingBackend{Backend: store, release: make(chan struct{}), entered: make(chan struct{}, 1)}
	_, addr := startServer(t, b, ServeOptions{})
	c := mustDial(t, addr, Options{PoolSize: 1})

	updated := make(chan error, 1)
	go func() { updated <- c.Update("t", dynamo.HK(dynamo.S("a")), nil, dynamo.Add(dynamo.A("V"), 1)) }()
	awaitEntered(t, b, 1)

	got := make(chan error, 1)
	go func() {
		_, _, err := c.Get("t", dynamo.HK(dynamo.S("a")))
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Errorf("Get beside a parked Update: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("a Get waited behind an Update parked in the backend on the same connection")
	}
	close(b.release)
	if err := <-updated; err != nil {
		t.Errorf("Update once released: %v", err)
	}
}

// TestConnDelayedRequestsOverlap: with ServeOptions.Delay, two requests
// pipelined on one connection sleep side by side: both are answered in less
// than twice the delay.
func TestConnDelayedRequestsOverlap(t *testing.T) {
	const delay = 50 * time.Millisecond
	store := dynamo.NewStore()
	seedTable(t, store)
	_, addr := startServer(t, store, ServeOptions{Delay: delay})
	c := mustDial(t, addr, Options{PoolSize: 1})

	start := time.Now()
	if failed := burst(c, 2); failed != 0 {
		t.Fatalf("%d of 2 Gets failed", failed)
	}
	if took := time.Since(start); took >= 2*delay {
		t.Errorf("two pipelined requests with a %v delay took %v: they ran one after the other", delay, took)
	}
}

// TestConnKeepsAtMostOneIdleGoroutine: 64 Gets held in the backend at once
// run on 64 goroutines of one connection; once they are answered, the
// connection is down to its reader and at most one idle goroutine, and it
// still serves.
func TestConnKeepsAtMostOneIdleGoroutine(t *testing.T) {
	const n = 64
	store := dynamo.NewStore()
	seedTable(t, store)
	b := &blockingBackend{Backend: store, gate: make(chan struct{}), entered: make(chan struct{}, n)}
	_, addr := startServer(t, b, ServeOptions{})
	t.Cleanup(b.open)
	c := mustDial(t, addr, Options{PoolSize: 1})

	done := make(chan int64, 1)
	go func() { done <- burst(c, n) }()
	awaitEntered(t, b, n)
	if got := serverGoroutines(false); got < n {
		t.Errorf("%d server goroutines with %d requests in the backend", got, n)
	}
	b.open()
	if failed := <-done; failed != 0 {
		t.Fatalf("%d of %d Gets failed", failed, n)
	}
	waitForServerGoroutines(t, 2, false)
	if failed := burst(c, 1); failed != 0 { // through the closed gate
		t.Error("the connection stopped serving after the burst")
	}
}

// TestConnNoServerGoroutineAfterServerClose: after a burst, Server.Close
// leaves no goroutine of the server behind, the accept loop included.
func TestConnNoServerGoroutineAfterServerClose(t *testing.T) {
	store := dynamo.NewStore()
	seedTable(t, store)
	srv, addr := startServer(t, store, ServeOptions{})
	c := mustDial(t, addr, Options{PoolSize: 1})
	if failed := burst(c, 64); failed != 0 {
		t.Fatalf("%d of 64 Gets failed", failed)
	}
	srv.Close()
	waitForServerGoroutines(t, 0, true)
}

// TestConnNoServerGoroutineAfterClientClose: a client that hangs up with 64
// requests parked in the backend leaves nothing of its connection on the
// server once they finish: no reader, no idle goroutine, no request.
func TestConnNoServerGoroutineAfterClientClose(t *testing.T) {
	const n = 64
	store := dynamo.NewStore()
	seedTable(t, store)
	b := &blockingBackend{Backend: store, gate: make(chan struct{}), entered: make(chan struct{}, n)}
	srv, addr := startServer(t, b, ServeOptions{})
	t.Cleanup(b.open)
	c := mustDial(t, addr, Options{PoolSize: 1, Retries: -1})

	done := make(chan int64, 1)
	go func() { done <- burst(c, n) }()
	awaitEntered(t, b, n)
	c.Close()
	if failed := <-done; failed != n {
		t.Errorf("%d of %d Gets in flight at Close failed, want all", failed, n)
	}
	b.open()
	waitForServerGoroutines(t, 0, false)
	srv.mu.Lock()
	conns := len(srv.conns)
	srv.mu.Unlock()
	if conns != 0 {
		t.Errorf("the server still tracks %d connections", conns)
	}
}
