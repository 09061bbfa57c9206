package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

func newBase(t *testing.T) *dynamo.Store {
	t.Helper()
	s := dynamo.NewStore()
	s.MustCreateTable(dynamo.Schema{Name: "kv", HashKey: "K"})
	s.MustCreateTable(dynamo.Schema{Name: "log", HashKey: "Key", SortKey: "RowId"})
	return s
}

func manual(t *testing.T, base storage.Backend) *Store {
	t.Helper()
	p, err := New(base, Options{ManualFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadYourOwnWritesAndWatermark(t *testing.T) {
	base := newBase(t)
	p := manual(t, base)

	for i := 0; i < 5; i++ {
		item := dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%d", i)), "V": dynamo.NInt(int64(i))}
		if err := p.Put("kv", item, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Speculative view sees everything immediately.
	for i := 0; i < 5; i++ {
		it, ok, err := p.Get("kv", dynamo.HK(dynamo.S(fmt.Sprintf("k%d", i))))
		if err != nil || !ok {
			t.Fatalf("overlay Get k%d: ok=%v err=%v", i, ok, err)
		}
		if it["V"].Num() != float64(i) {
			t.Fatalf("overlay k%d = %v", i, it["V"])
		}
	}
	// The base has nothing yet: the writes sit above the watermark.
	if _, ok, _ := base.Get("kv", dynamo.HK(dynamo.S("k0"))); ok {
		t.Fatal("base saw a speculated write before flush")
	}
	if lag := p.Lag(); lag != 5 {
		t.Fatalf("Lag = %d, want 5", lag)
	}
	wrote, err := p.FlushStep()
	if err != nil || !wrote {
		t.Fatalf("FlushStep: wrote=%v err=%v", wrote, err)
	}
	for i := 0; i < 5; i++ {
		it, ok, _ := base.Get("kv", dynamo.HK(dynamo.S(fmt.Sprintf("k%d", i))))
		if !ok || it["V"].Num() != float64(i) {
			t.Fatalf("base k%d after flush: ok=%v item=%v", i, ok, it)
		}
	}
	if lag := p.Lag(); lag != 0 {
		t.Fatalf("Lag after flush = %d, want 0", lag)
	}
	st := p.Snapshot()
	if st.Appended != 5 || st.Flushes != 1 || st.FlushedRows != 5 || st.MaxBatch != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatchCarriesPostImagesNotRedoRecords(t *testing.T) {
	base := newBase(t)
	p := manual(t, base)

	// Many writes to ONE row must flush as one post-image install, or
	// dynamo.TransactWrite would reject the duplicate row target.
	for i := 0; i < 50; i++ {
		if err := p.Put("kv", dynamo.Item{"K": dynamo.S("hot"), "V": dynamo.NInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.FlushStep(); err != nil {
		t.Fatal(err)
	}
	it, ok, _ := base.Get("kv", dynamo.HK(dynamo.S("hot")))
	if !ok || it["V"].Num() != 49 {
		t.Fatalf("base hot = %v (ok=%v), want 49", it, ok)
	}
	st := p.Snapshot()
	if st.Appended != 50 || st.FlushedRows != 1 {
		t.Fatalf("stats = %+v: want 50 appends collapsing to 1 flushed row", st)
	}
}

func TestConditionalSemanticsMatchBase(t *testing.T) {
	base := newBase(t)
	p := manual(t, base)

	if err := p.Put("kv", dynamo.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)}, nil); err != nil {
		t.Fatal(err)
	}
	// A failing conditional put must fail exactly as the base would, dirty
	// nothing, and advance no watermark.
	before := p.Lag()
	err := p.Put("kv", dynamo.Item{"K": dynamo.S("a"), "V": dynamo.NInt(9)},
		dynamo.Eq(dynamo.A("V"), dynamo.NInt(42)))
	if !errors.Is(err, dynamo.ErrConditionFailed) {
		t.Fatalf("conditional put: %v, want ErrConditionFailed", err)
	}
	if p.Lag() != before {
		t.Fatal("failed conditional advanced the append watermark")
	}
	// A succeeding conditional sees the speculative (not durable) state.
	err = p.Update("kv", dynamo.HK(dynamo.S("a")),
		dynamo.Eq(dynamo.A("V"), dynamo.NInt(1)),
		dynamo.Set(dynamo.A("V"), dynamo.NInt(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FlushStep(); err != nil {
		t.Fatal(err)
	}
	it, _, _ := base.Get("kv", dynamo.HK(dynamo.S("a")))
	if it["V"].Num() != 2 {
		t.Fatalf("base a = %v, want 2", it["V"])
	}
}

func TestDeleteFlushesAsDelete(t *testing.T) {
	base := newBase(t)
	if err := base.Put("kv", dynamo.Item{"K": dynamo.S("gone"), "V": dynamo.NInt(7)}, nil); err != nil {
		t.Fatal(err)
	}
	p := manual(t, base)
	// Warm overlay sees the durable row.
	if _, ok, _ := p.Get("kv", dynamo.HK(dynamo.S("gone"))); !ok {
		t.Fatal("warmed overlay missing durable row")
	}
	if err := p.Delete("kv", dynamo.HK(dynamo.S("gone")), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := p.Get("kv", dynamo.HK(dynamo.S("gone"))); ok {
		t.Fatal("overlay still sees deleted row")
	}
	if _, err := p.FlushStep(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := base.Get("kv", dynamo.HK(dynamo.S("gone"))); ok {
		t.Fatal("base still has the row after a flushed delete")
	}
}

func TestTransactWriteSpeculatesAtomically(t *testing.T) {
	base := newBase(t)
	p := manual(t, base)
	if err := p.Put("kv", dynamo.Item{"K": dynamo.S("x"), "V": dynamo.NInt(0)}, nil); err != nil {
		t.Fatal(err)
	}
	// Check op guards, Puts mutate; the Check row must not be dirtied.
	err := p.TransactWrite([]dynamo.TxOp{
		{Table: "kv", Key: dynamo.HK(dynamo.S("x")), Check: true, Cond: dynamo.Eq(dynamo.A("V"), dynamo.NInt(0))},
		{Table: "kv", Put: dynamo.Item{"K": dynamo.S("y"), "V": dynamo.NInt(1)}},
		{Table: "kv", Put: dynamo.Item{"K": dynamo.S("w"), "V": dynamo.NInt(5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A failing transaction leaves no speculative trace.
	err = p.TransactWrite([]dynamo.TxOp{
		{Table: "kv", Key: dynamo.HK(dynamo.S("x")), Check: true, Cond: dynamo.Eq(dynamo.A("V"), dynamo.NInt(99))},
		{Table: "kv", Put: dynamo.Item{"K": dynamo.S("z"), "V": dynamo.NInt(1)}},
	})
	var tc *dynamo.TxCanceledError
	if !errors.As(err, &tc) {
		t.Fatalf("failing txn: %v, want TxCanceledError", err)
	}
	if _, ok, _ := p.Get("kv", dynamo.HK(dynamo.S("z"))); ok {
		t.Fatal("aborted txn leaked a speculative write")
	}
	if _, err := p.FlushStep(); err != nil {
		t.Fatal(err)
	}
	// x flushes with its original Put image — the Check left it untouched.
	itX, okX, _ := base.Get("kv", dynamo.HK(dynamo.S("x")))
	if !okX || itX["V"].Num() != 0 {
		t.Fatalf("base x = %v (ok=%v), want the original 0", itX, okX)
	}
	itW, okW, _ := base.Get("kv", dynamo.HK(dynamo.S("w")))
	itY, okY, _ := base.Get("kv", dynamo.HK(dynamo.S("y")))
	if !okW || itW["V"].Num() != 5 || !okY || itY["V"].Num() != 1 {
		t.Fatalf("base after txn flush: w=%v(ok=%v) y=%v(ok=%v)", itW, okW, itY, okY)
	}
}

func TestDropAndCloseLosesOnlyTheTail(t *testing.T) {
	base := newBase(t)
	p := manual(t, base)
	if err := p.Put("kv", dynamo.Item{"K": dynamo.S("durable"), "V": dynamo.NInt(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FlushStep(); err != nil {
		t.Fatal(err)
	}
	if err := p.Put("kv", dynamo.Item{"K": dynamo.S("speculated"), "V": dynamo.NInt(2)}, nil); err != nil {
		t.Fatal(err)
	}
	p.DropAndClose() // the crash

	if _, ok, _ := base.Get("kv", dynamo.HK(dynamo.S("durable"))); !ok {
		t.Fatal("durable prefix lost")
	}
	if _, ok, _ := base.Get("kv", dynamo.HK(dynamo.S("speculated"))); ok {
		t.Fatal("speculated tail escaped to the base")
	}
	if err := p.Put("kv", dynamo.Item{"K": dynamo.S("late"), "V": dynamo.NInt(3)}, nil); err == nil {
		t.Fatal("write accepted after close")
	}

	// Recovery: a fresh overlay warms from the durable prefix only.
	p2 := manual(t, base)
	if _, ok, _ := p2.Get("kv", dynamo.HK(dynamo.S("durable"))); !ok {
		t.Fatal("reopened overlay missing durable row")
	}
	if _, ok, _ := p2.Get("kv", dynamo.HK(dynamo.S("speculated"))); ok {
		t.Fatal("reopened overlay resurrected the dropped tail")
	}
}

func TestDepthOneIsSynchronous(t *testing.T) {
	base := newBase(t)
	p, err := New(base, Options{Depth: 1, ManualFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := p.Put("kv", dynamo.Item{"K": dynamo.S(k), "V": dynamo.NInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
		// Depth 1: the write is durable before Put returns.
		if _, ok, _ := base.Get("kv", dynamo.HK(dynamo.S(k))); !ok {
			t.Fatalf("depth-1 write %s not durable at return", k)
		}
	}
	if st := p.Snapshot(); st.Flushes != 3 {
		t.Fatalf("Flushes = %d, want 3 (one per write)", st.Flushes)
	}
}

// TestDepthBoundsUnflushedWrites walks past Depth: the writes below it stay
// speculative, the one that reaches it is not acknowledged until a flush has
// made everything before it durable.
func TestDepthBoundsUnflushedWrites(t *testing.T) {
	const depth = 4
	base := newBase(t)
	p, err := New(base, Options{Depth: depth, ManualFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2*depth; i++ {
		if err := p.Put("kv", dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%d", i)), "V": dynamo.NInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
		if want := i % depth; p.Lag() != want {
			t.Fatalf("after write %d: Lag = %d, want %d", i, p.Lag(), want)
		}
	}
	if st := p.Snapshot(); st.Flushes != 2 || st.FlushedRows != 2*depth {
		t.Fatalf("stats = %+v, want 2 flushes of %d rows", st, depth)
	}
	if n, _ := base.TableItemCount("kv"); n != 2*depth {
		t.Fatalf("base holds %d rows, want %d", n, 2*depth)
	}
}

func TestFenceWaitsForCommitter(t *testing.T) {
	base := newBase(t)
	p, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 20; i++ {
		if err := p.Put("kv", dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%d", i)), "V": dynamo.NInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Fence(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, ok, _ := base.Get("kv", dynamo.HK(dynamo.S(fmt.Sprintf("k%d", i)))); !ok {
			t.Fatalf("k%d not durable after Fence", i)
		}
	}
	if st := p.Snapshot(); st.Fences == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentWritersUnderRace(t *testing.T) {
	base := newBase(t)
	p, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				item := dynamo.Item{"K": dynamo.S(fmt.Sprintf("w%d-%d", w, i)), "V": dynamo.NInt(int64(i))}
				if err := p.Put("kv", item, nil); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.Fence(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	n, _ := base.TableItemCount("kv")
	if n != workers*per {
		t.Fatalf("base rows = %d, want %d", n, workers*per)
	}
}

// failingBase wraps a backend and fails TransactWrite on demand.
type failingBase struct {
	storage.Backend
	fail atomic.Bool
}

func (f *failingBase) TransactWrite(ops []storage.TxOp) error {
	if f.fail.Load() {
		return errors.New("injected flush failure")
	}
	return f.Backend.TransactWrite(ops)
}

func TestFlushFailurePoisonsOverlay(t *testing.T) {
	fb := &failingBase{Backend: newBase(t)}
	p := manual(t, fb)
	if err := p.Put("kv", dynamo.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)}, nil); err != nil {
		t.Fatal(err)
	}
	fb.fail.Store(true)
	if _, err := p.FlushStep(); err == nil {
		t.Fatal("flush against failing base succeeded")
	}
	// The overlay is now poisoned: every subsequent write and fence fails
	// rather than silently diverging from the base.
	if err := p.Put("kv", dynamo.Item{"K": dynamo.S("b"), "V": dynamo.NInt(2)}, nil); err == nil {
		t.Fatal("write accepted on a poisoned overlay")
	}
	if err := p.Fence(); err == nil {
		t.Fatal("fence succeeded on a poisoned overlay")
	}
}

func TestCreateTableFlowsAndWarmAdoption(t *testing.T) {
	base := newBase(t)
	p := manual(t, base)
	schema := storage.Schema{Name: "new", HashKey: "K"}
	if err := p.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if err := p.Put("new", dynamo.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)}, nil); err != nil {
		t.Fatal(err)
	}
	// Re-creating reports ErrTableExists exactly like the base (runtime
	// adoption logic depends on the identity).
	if err := p.CreateTable(schema); !errors.Is(err, storage.ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := p.FlushStep(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := base.Get("new", dynamo.HK(dynamo.S("a"))); !ok {
		t.Fatal("row missing from created table after flush")
	}
}

func TestModeledFlushTimeTracksBaseModel(t *testing.T) {
	base := dynamo.NewStore(dynamo.WithLatency(dynamo.CommitCost{
		Flush: 10 * time.Millisecond,
		PerOp: time.Millisecond,
	}))
	base.MustCreateTable(dynamo.Schema{Name: "kv", HashKey: "K"})
	p := manual(t, base)
	for i := 0; i < 4; i++ {
		if err := p.Put("kv", dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%d", i)), "V": dynamo.NInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.FlushStep(); err != nil {
		t.Fatal(err)
	}
	// One 4-row batch: the overlay's modeled flush time must equal what the
	// base charged inside its latch — Flush + 4*PerOp.
	want := 14 * time.Millisecond
	if got := p.Snapshot().ModeledFlushTime; got != want {
		t.Fatalf("ModeledFlushTime = %v, want %v", got, want)
	}
}

// TestWatchDeliversOnlyDurableCommits pins the overlay's durable-only watch
// semantics: a subscription opened through the pipeline must stay silent
// while a write is merely speculative (visible in the shadow, above the
// durability watermark) and wake exactly when the flush lands the write on
// the base — so a consumer woken by the event can re-read durable state and
// find what woke it.
func TestWatchDeliversOnlyDurableCommits(t *testing.T) {
	base := newBase(t)
	p := manual(t, base)

	sub, ok := storage.Watch(p, "kv", dynamo.Null)
	if !ok {
		t.Fatal("pipeline over a watchable base reported no push support")
	}
	defer sub.Close()

	if err := p.Put("kv", dynamo.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)}, nil); err != nil {
		t.Fatal(err)
	}
	// Speculative: readable through the overlay, but no wakeup yet.
	if _, ok, _ := p.Get("kv", dynamo.HK(dynamo.S("a"))); !ok {
		t.Fatal("overlay lost its own write")
	}
	if sub.Wait(50*time.Millisecond, nil, nil) {
		t.Fatal("watch woke for a speculative write before its flush")
	}

	if _, err := p.FlushStep(); err != nil {
		t.Fatal(err)
	}
	if !sub.Wait(5*time.Second, nil, nil) {
		t.Fatal("flush landed the write on the base but produced no wakeup")
	}
	// The event's promise: the durable view now holds the write.
	if it, ok, _ := base.Get("kv", dynamo.HK(dynamo.S("a"))); !ok || it["V"].Int() != 1 {
		t.Fatalf("woken reader found base row %v (ok=%v)", it, ok)
	}
}

// TestWatchOverPushlessBaseDegradesToPolling: the overlay refuses Watch when
// its base cannot push, and the capability probe converts that refusal into
// the poll fallback.
func TestWatchOverPushlessBaseDegradesToPolling(t *testing.T) {
	p := manual(t, pushless{newBase(t)})
	if _, err := p.Watch("kv", dynamo.Null); err == nil {
		t.Error("Watch over a push-less base succeeded")
	}
	if _, ok := storage.Watch(p, "kv", dynamo.Null); ok {
		t.Error("capability probe reported push support over a push-less base")
	}
}

// pushless hides the dynamo store's Watcher so only the Backend surface
// remains.
type pushless struct{ *dynamo.Store }

func (pushless) Watch() {} // shadow the method with a different shape
