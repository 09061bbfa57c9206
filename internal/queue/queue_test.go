package queue

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/storage/storagetest"
)

func newTestBroker(t *testing.T) (*Broker, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	b := NewBroker(BrokerOptions{Store: storagetest.Open(t), Clock: clk})
	return b, clk
}

func TestEnqueueReceiveAck(t *testing.T) {
	b, _ := newTestBroker(t)
	b.MustCreate("q", Options{})

	id, err := b.Enqueue("q", dynamo.S("hello"))
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := b.Receive("q", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].ID != id || msgs[0].Body.Str() != "hello" {
		t.Fatalf("got %+v, want one message %s", msgs, id)
	}
	if msgs[0].ReceiveCount != 1 {
		t.Fatalf("ReceiveCount = %d, want 1", msgs[0].ReceiveCount)
	}
	if err := b.Ack("q", msgs[0].ID, msgs[0].Receipt); err != nil {
		t.Fatal(err)
	}
	if n, _ := b.Depth("q"); n != 0 {
		t.Fatalf("depth after ack = %d, want 0", n)
	}
}

func TestReceiveOrderIsEnqueueOrder(t *testing.T) {
	b, _ := newTestBroker(t)
	b.MustCreate("q", Options{})
	for i := 0; i < 5; i++ {
		if _, err := b.Enqueue("q", dynamo.NInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := b.Receive("q", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if m.Body.Int() != int64(i) {
			t.Fatalf("message %d carries %d, want enqueue order", i, m.Body.Int())
		}
	}
}

func TestInFlightMessageIsInvisible(t *testing.T) {
	b, _ := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Second})
	if _, err := b.Enqueue("q", dynamo.S("x")); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := b.Receive("q", 1); len(msgs) != 1 {
		t.Fatal("first receive should claim the message")
	}
	msgs, err := b.Receive("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Fatalf("in-flight message was received again: %+v", msgs)
	}
	if b.Metrics().EmptyReceives.Load() == 0 {
		t.Fatal("empty receive not counted")
	}
}

func TestVisibilityTimeoutRedelivers(t *testing.T) {
	b, clk := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Second})
	if _, err := b.Enqueue("q", dynamo.S("x")); err != nil {
		t.Fatal(err)
	}
	first, _ := b.Receive("q", 1)
	if len(first) != 1 {
		t.Fatal("expected initial delivery")
	}
	// The consumer "crashes": no ack. Before the timeout, nothing; after, a
	// redelivery with the receive count advanced and a fresh receipt.
	clk.Advance(999 * time.Millisecond)
	if msgs, _ := b.Receive("q", 1); len(msgs) != 0 {
		t.Fatal("message redelivered before visibility timeout")
	}
	clk.Advance(2 * time.Millisecond)
	second, err := b.Receive("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 {
		t.Fatal("message not redelivered after visibility timeout")
	}
	if second[0].ReceiveCount != 2 {
		t.Fatalf("ReceiveCount = %d, want 2", second[0].ReceiveCount)
	}
	if second[0].Receipt == first[0].Receipt {
		t.Fatal("redelivery reused the receipt")
	}
	if b.Metrics().Redelivered.Load() != 1 {
		t.Fatalf("Redelivered = %d, want 1", b.Metrics().Redelivered.Load())
	}
	// The first delivery's receipt is now stale: its ack must not delete the
	// redelivered message.
	if err := b.Ack("q", first[0].ID, first[0].Receipt); !errors.Is(err, ErrStaleReceipt) {
		t.Fatalf("stale ack err = %v, want ErrStaleReceipt", err)
	}
	if n, _ := b.Depth("q"); n != 1 {
		t.Fatalf("depth = %d, want 1 (stale ack must not delete)", n)
	}
	if err := b.Ack("q", second[0].ID, second[0].Receipt); err != nil {
		t.Fatal(err)
	}
}

func TestEnqueueDelayed(t *testing.T) {
	b, clk := newTestBroker(t)
	b.MustCreate("q", Options{})
	if _, err := b.EnqueueDelayed("q", dynamo.S("x"), time.Second); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := b.Receive("q", 1); len(msgs) != 0 {
		t.Fatal("delayed message visible too early")
	}
	clk.Advance(time.Second)
	if msgs, _ := b.Receive("q", 1); len(msgs) != 1 {
		t.Fatal("delayed message not visible after delay")
	}
}

func TestDeadLetterAfterBudget(t *testing.T) {
	b, clk := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Millisecond, MaxReceives: 3})
	id, err := b.Enqueue("q", dynamo.S("poison"))
	if err != nil {
		t.Fatal(err)
	}
	// Three failed deliveries...
	for i := 0; i < 3; i++ {
		msgs, err := b.Receive("q", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 {
			t.Fatalf("delivery %d: got %d messages", i+1, len(msgs))
		}
		clk.Advance(2 * time.Millisecond) // consumer dies; claim expires
	}
	// ...and the fourth receive moves it to the DLQ instead of delivering.
	msgs, err := b.Receive("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Fatalf("message over budget was delivered: %+v", msgs)
	}
	dead, err := b.DeadLetters("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0].ID != id || dead[0].ReceiveCount != 3 {
		t.Fatalf("DLQ = %+v, want the poison message after 3 receives", dead)
	}
	if n, _ := b.Depth("q"); n != 0 {
		t.Fatalf("main queue depth = %d, want 0", n)
	}
	if b.Metrics().DeadLettered.Load() != 1 {
		t.Fatalf("DeadLettered = %d, want 1", b.Metrics().DeadLettered.Load())
	}
}

func TestRedriveRestoresDeadLetters(t *testing.T) {
	b, clk := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Millisecond, MaxReceives: 1})
	if _, err := b.Enqueue("q", dynamo.S("retry-me")); err != nil {
		t.Fatal(err)
	}
	b.Receive("q", 1) //nolint:errcheck
	clk.Advance(2 * time.Millisecond)
	b.Receive("q", 1) //nolint:errcheck // dead-letters it
	if dead, _ := b.DeadLetters("q"); len(dead) != 1 {
		t.Fatal("expected one dead letter")
	}
	n, err := b.Redrive("q")
	if err != nil || n != 1 {
		t.Fatalf("Redrive = %d, %v; want 1, nil", n, err)
	}
	msgs, err := b.Receive("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Body.Str() != "retry-me" || msgs[0].ReceiveCount != 1 {
		t.Fatalf("redriven delivery = %+v, want fresh budget", msgs)
	}
	if dead, _ := b.DeadLetters("q"); len(dead) != 0 {
		t.Fatal("DLQ not emptied by redrive")
	}
}

// TestRedriveDoesNotClobberInFlightClaim is the multi-process regression:
// a redrive that crashed between its put and its DLQ delete leaves the
// message live in both tables. If a consumer then claims the live copy, a
// second redrive (on any broker over the same store) must not overwrite the
// claimed row — that would erase the consumer's receipt and reset the
// redelivery budget, turning one logical message into two deliveries.
func TestRedriveDoesNotClobberInFlightClaim(t *testing.T) {
	b, clk := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Minute, MaxReceives: 1})
	if _, err := b.Enqueue("q", dynamo.S("m")); err != nil {
		t.Fatal(err)
	}
	// Drive the message to the DLQ.
	b.Receive("q", 1) //nolint:errcheck
	clk.Advance(2 * time.Minute)
	b.Receive("q", 1) //nolint:errcheck // over budget: dead-letters it
	if dead, _ := b.DeadLetters("q"); len(dead) != 1 {
		t.Fatal("expected one dead letter")
	}
	// Simulate a redrive that crashed after its put: copy the DLQ row back
	// to the main queue by hand, leaving the DLQ row in place.
	rows, err := b.store.Scan(dlqTableOf("q"), dynamo.QueryOpts{})
	if err != nil || len(rows) != 1 {
		t.Fatalf("dlq scan: %v %d", err, len(rows))
	}
	live := rows[0].Clone()
	delete(live, attrReason)
	delete(live, attrReceipt)
	live[attrRecv] = dynamo.NInt(0)
	live[attrVisible] = dynamo.NInt(clk.Now().UnixMicro())
	if err := b.store.Put(tableOf("q"), live, nil); err != nil {
		t.Fatal(err)
	}
	// A consumer claims the live copy.
	msgs, err := b.Receive("q", 1)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("receive live copy: %v %d", err, len(msgs))
	}
	// The second redrive completes the crashed one: DLQ emptied, but the
	// in-flight claim untouched.
	if _, err := b.Redrive("q"); err != nil {
		t.Fatal(err)
	}
	if dead, _ := b.DeadLetters("q"); len(dead) != 0 {
		t.Fatal("DLQ not emptied by completing redrive")
	}
	if err := b.Ack("q", msgs[0].ID, msgs[0].Receipt); err != nil {
		t.Fatalf("consumer ack after redrive: %v (receipt clobbered)", err)
	}
	if n, _ := b.Depth("q"); n != 0 {
		t.Fatalf("queue depth = %d after ack, want 0 (message duplicated)", n)
	}
}

func TestConcurrentConsumersNeverDoubleClaim(t *testing.T) {
	b, _ := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Hour})
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := b.Enqueue("q", dynamo.NInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seen := make(map[string]int)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msgs, err := b.Receive("q", 7)
				if err != nil {
					t.Error(err)
					return
				}
				if len(msgs) == 0 {
					return
				}
				mu.Lock()
				for _, m := range msgs {
					seen[m.ID]++
				}
				mu.Unlock()
				for _, m := range msgs {
					if err := b.Ack("q", m.ID, m.Receipt); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("received %d distinct messages, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("message %s delivered %d times while claims were live", id, c)
		}
	}
}

func TestQueueLifecycleErrors(t *testing.T) {
	b, _ := newTestBroker(t)
	if _, err := b.Enqueue("missing", dynamo.Null); !errors.Is(err, ErrNoSuchQueue) {
		t.Fatalf("err = %v, want ErrNoSuchQueue", err)
	}
	b.MustCreate("q", Options{})
	if err := b.Create("q", Options{}); !errors.Is(err, ErrQueueExists) {
		t.Fatalf("err = %v, want ErrQueueExists", err)
	}
	if err := b.EnsureQueue("q", Options{}); err != nil {
		t.Fatalf("EnsureQueue on existing queue: %v", err)
	}
	if got := b.Queues(); len(got) != 1 || got[0] != "q" {
		t.Fatalf("Queues() = %v", got)
	}
}

func TestBrokerRestartReopensDurableQueues(t *testing.T) {
	store := storagetest.Open(t)
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	b1 := NewBroker(BrokerOptions{Store: store, Clock: clk})
	b1.MustCreate("q", Options{})
	if _, err := b1.Enqueue("q", dynamo.S("survivor")); err != nil {
		t.Fatal(err)
	}
	// The broker process "restarts": a fresh Broker over the same store must
	// reopen the queue (tables already exist) and see the backlog.
	b2 := NewBroker(BrokerOptions{Store: store, Clock: clk})
	if err := b2.EnsureQueue("q", Options{}); err != nil {
		t.Fatalf("reopening a durable queue: %v", err)
	}
	msgs, err := b2.Receive("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Body.Str() != "survivor" {
		t.Fatalf("backlog lost across broker restart: %+v", msgs)
	}
}

func TestDeadLetterSurvivesInBothTablesNever(t *testing.T) {
	// After dead-lettering, the message must exist in exactly one place: the
	// DLQ (the move copies first, then deletes — a crash in between retries,
	// never loses).
	b, clk := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Millisecond, MaxReceives: 1})
	id, err := b.Enqueue("q", dynamo.S("x"))
	if err != nil {
		t.Fatal(err)
	}
	b.Receive("q", 1) //nolint:errcheck
	clk.Advance(2 * time.Millisecond)
	b.Receive("q", 1) //nolint:errcheck // dead-letters it
	if n, _ := b.Depth("q"); n != 0 {
		t.Fatalf("live depth = %d after dead-lettering, want 0", n)
	}
	dead, _ := b.DeadLetters("q")
	if len(dead) != 1 || dead[0].ID != id {
		t.Fatalf("DLQ = %+v", dead)
	}
}

func TestLenCountsOnlyVisible(t *testing.T) {
	b, _ := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Hour})
	for i := 0; i < 3; i++ {
		if _, err := b.Enqueue("q", dynamo.NInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Receive("q", 1); err != nil {
		t.Fatal(err)
	}
	visible, _ := b.Len("q")
	depth, _ := b.Depth("q")
	if visible != 2 || depth != 3 {
		t.Fatalf("Len = %d, Depth = %d; want 2, 3", visible, depth)
	}
}

func TestReceiveBatchSizes(t *testing.T) {
	b, _ := newTestBroker(t)
	b.MustCreate("q", Options{VisibilityTimeout: time.Hour})
	for i := 0; i < 10; i++ {
		if _, err := b.Enqueue("q", dynamo.NInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []int{1, 4, 5} {
		msgs, err := b.Receive("q", want)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != want {
			t.Fatalf("Receive(%d) returned %d", want, len(msgs))
		}
	}
}

func BenchmarkEnqueueAckRoundTrip(b *testing.B) {
	br := NewBroker(BrokerOptions{Store: storagetest.Open(b)})
	br.MustCreate("bench", Options{VisibilityTimeout: time.Hour})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := br.Enqueue("bench", dynamo.NInt(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		msgs, err := br.Receive("bench", 1)
		if err != nil || len(msgs) != 1 {
			b.Fatalf("receive: %v (%d msgs)", err, len(msgs))
		}
		if err := br.Ack("bench", id, msgs[0].Receipt); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleBroker() {
	b := NewBroker(BrokerOptions{Store: dynamo.NewStore()})
	b.MustCreate("orders", Options{})
	b.Enqueue("orders", dynamo.S("order-1")) //nolint:errcheck
	msgs, _ := b.Receive("orders", 10)
	for _, m := range msgs {
		fmt.Println(m.Body.Str())
		b.Ack("orders", m.ID, m.Receipt) //nolint:errcheck
	}
	// Output: order-1
}

func TestQueueShardAffinityAndReopenAdoption(t *testing.T) {
	store := dynamo.NewStore(dynamo.WithShards(8))
	b1 := NewBroker(BrokerOptions{Store: store})
	// Default: per-queue single-shard affinity, overriding the store's
	// 8-shard default; DLQ single-shard too.
	b1.MustCreate("aff", Options{})
	for _, tbl := range []string{tableOf("aff"), dlqTableOf("aff")} {
		if n, err := store.TableShards(tbl); err != nil || n != 1 {
			t.Errorf("%s: %d shards, err %v; want 1", tbl, n, err)
		}
	}
	// A broker reopening the surviving tables adopts them, backlog intact.
	if _, err := b1.Enqueue("aff", dynamo.S("m")); err != nil {
		t.Fatal(err)
	}
	b2 := NewBroker(BrokerOptions{Store: store})
	if err := b2.Create("aff", Options{}); err != nil {
		t.Fatal(err)
	}
	msgs, err := b2.Receive("aff", 1)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("receive after reopen: %v (%d msgs)", err, len(msgs))
	}
}
