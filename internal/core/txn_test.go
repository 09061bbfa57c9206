package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// transferBody moves amount from account "from" to "to" transactionally iff
// funds suffice; returns the decision.
func transferBody(e *Env, in Value) (Value, error) {
	m := in.Map()
	from, to := m["from"].Str(), m["to"].Str()
	amount := m["amount"].Int()
	committed := false
	err := e.Transaction(func() error {
		bal, err := e.Read("acct", from)
		if err != nil {
			return err
		}
		if bal.Int() < amount {
			return nil // insufficient: commit without changes
		}
		if err := e.Write("acct", from, dynamo.NInt(bal.Int()-amount)); err != nil {
			return err
		}
		toBal, err := e.Read("acct", to)
		if err != nil {
			return err
		}
		if err := e.Write("acct", to, dynamo.NInt(toBal.Int()+amount)); err != nil {
			return err
		}
		committed = true
		return nil
	})
	if errors.Is(err, ErrTxnAborted) {
		return dynamo.S("aborted"), nil
	}
	if err != nil {
		return dynamo.Null, err
	}
	if committed {
		return dynamo.S("ok"), nil
	}
	return dynamo.S("insufficient"), nil
}

func seedAccounts(t *testing.T, f *fixture, fn string, balances map[string]int64) {
	t.Helper()
	f.fn(fn+".seed", func(e *Env, in Value) (Value, error) {
		for k, v := range in.Map() {
			if err := e.Write("acct", k, v); err != nil {
				return dynamo.Null, err
			}
		}
		return dynamo.Null, nil
	})
	// The seeder writes through the owner's tables, so share the runtime's
	// store/table names by writing directly instead.
	rt := f.rts[fn]
	for k, v := range balances {
		d := daal{rt: rt, table: rt.dataTable("acct")}
		if _, err := d.loggedWrite(k, "seed#"+k, setTo(dynamo.NInt(v))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransactionCommitSingleSSF(t *testing.T) {
	f := newFixture(t)
	f.fn("bank", transferBody, "acct")
	seedAccounts(t, f, "bank", map[string]int64{"a": 100, "b": 50})
	out := f.mustInvoke("bank", dynamo.M(map[string]Value{
		"from": dynamo.S("a"), "to": dynamo.S("b"), "amount": dynamo.NInt(30),
	}))
	if out.Str() != "ok" {
		t.Fatalf("transfer: %v", out)
	}
	if got := f.readData("bank", "acct", "a"); got.Int() != 70 {
		t.Errorf("a = %v", got)
	}
	if got := f.readData("bank", "acct", "b"); got.Int() != 80 {
		t.Errorf("b = %v", got)
	}
	// Locks released.
	_, lock, _, _ := f.rts["bank"].layer().stateRead("acct", "a")
	if !lock.IsNull() {
		t.Errorf("lock still held: %v", lock)
	}
}

func TestTransactionInsufficientFundsLeavesStateIntact(t *testing.T) {
	f := newFixture(t)
	f.fn("bank", transferBody, "acct")
	seedAccounts(t, f, "bank", map[string]int64{"a": 10, "b": 0})
	out := f.mustInvoke("bank", dynamo.M(map[string]Value{
		"from": dynamo.S("a"), "to": dynamo.S("b"), "amount": dynamo.NInt(30),
	}))
	if out.Str() != "insufficient" {
		t.Fatalf("transfer: %v", out)
	}
	if got := f.readData("bank", "acct", "a"); got.Int() != 10 {
		t.Errorf("a = %v", got)
	}
}

func TestTransactionAbortDiscardsShadow(t *testing.T) {
	f := newFixture(t)
	f.fn("bank", func(e *Env, in Value) (Value, error) {
		err := e.Transaction(func() error {
			if err := e.Write("acct", "a", dynamo.NInt(999)); err != nil {
				return err
			}
			return errors.New("deliberate abort")
		})
		if err == nil {
			return dynamo.Null, errors.New("abort did not surface")
		}
		return dynamo.S("aborted"), nil
	}, "acct")
	seedAccounts(t, f, "bank", map[string]int64{"a": 1})
	out := f.mustInvoke("bank", dynamo.Null)
	if out.Str() != "aborted" {
		t.Fatalf("out = %v", out)
	}
	if got := f.readData("bank", "acct", "a"); got.Int() != 1 {
		t.Errorf("abort leaked: a = %v", got)
	}
	_, lock, _, _ := f.rts["bank"].layer().stateRead("acct", "a")
	if !lock.IsNull() {
		t.Errorf("lock leaked after abort: %v", lock)
	}
}

func TestTransactionReadYourWrites(t *testing.T) {
	f := newFixture(t)
	f.fn("rw", func(e *Env, in Value) (Value, error) {
		var got Value
		err := e.Transaction(func() error {
			if err := e.Write("acct", "x", dynamo.NInt(42)); err != nil {
				return err
			}
			var err error
			got, err = e.Read("acct", "x")
			return err
		})
		return got, err
	}, "acct")
	if out := f.mustInvoke("rw", dynamo.Null); out.Int() != 42 {
		t.Errorf("read-your-writes = %v", out)
	}
}

func TestTransactionPanicAborts(t *testing.T) {
	// §6.2: the body runs in a goroutine to catch runtime exceptions; a
	// panic must abort, not crash the instance.
	f := newFixture(t)
	f.fn("p", func(e *Env, in Value) (Value, error) {
		err := e.Transaction(func() error {
			if err := e.Write("acct", "x", dynamo.NInt(1)); err != nil {
				return err
			}
			panic("division by zero, say")
		})
		if errors.Is(err, ErrTxnAborted) {
			return dynamo.S("aborted"), nil
		}
		return dynamo.Null, err
	}, "acct")
	if out := f.mustInvoke("p", dynamo.Null); out.Str() != "aborted" {
		t.Fatalf("out = %v", out)
	}
	if got := f.readData("p", "acct", "x"); !got.IsNull() {
		t.Errorf("panic leaked write: %v", got)
	}
}

func TestCrossSSFTransactionCommit(t *testing.T) {
	// The travel-reservation shape (§7.1): a coordinator reserves a hotel
	// and a flight in different SSFs inside one transaction; both must
	// commit atomically.
	f := newFixture(t)
	reserve := func(e *Env, in Value) (Value, error) {
		cap, err := e.Read("inv", "capacity")
		if err != nil {
			return dynamo.Null, err
		}
		if cap.Int() < 1 {
			return dynamo.Null, ErrTxnAborted
		}
		if err := e.Write("inv", "capacity", dynamo.NInt(cap.Int()-1)); err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("reserved"), nil
	}
	f.fn("hotel", reserve, "inv")
	f.fn("flight", reserve, "inv")
	f.fn("trip", func(e *Env, in Value) (Value, error) {
		err := e.Transaction(func() error {
			if _, err := e.SyncInvoke("hotel", dynamo.Null); err != nil {
				return err
			}
			_, err := e.SyncInvoke("flight", dynamo.Null)
			return err
		})
		if errors.Is(err, ErrTxnAborted) {
			return dynamo.S("aborted"), nil
		}
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("booked"), nil
	})
	seedCapacity(t, f, "hotel", 2)
	seedCapacity(t, f, "flight", 1)

	if out := f.mustInvoke("trip", dynamo.Null); out.Str() != "booked" {
		t.Fatalf("first trip: %v", out)
	}
	if got := f.readData("hotel", "inv", "capacity"); got.Int() != 1 {
		t.Errorf("hotel capacity = %v", got)
	}
	if got := f.readData("flight", "inv", "capacity"); got.Int() != 0 {
		t.Errorf("flight capacity = %v", got)
	}

	// Second trip: hotel has room, flight does not → whole txn aborts and
	// the hotel's decrement must NOT stick.
	if out := f.mustInvoke("trip", dynamo.Null); out.Str() != "aborted" {
		t.Fatalf("second trip: %v", out)
	}
	if got := f.readData("hotel", "inv", "capacity"); got.Int() != 1 {
		t.Errorf("hotel capacity leaked on abort: %v", got)
	}
	if got := f.readData("flight", "inv", "capacity"); got.Int() != 0 {
		t.Errorf("flight capacity = %v", got)
	}
	// All locks across both participants are released.
	for _, fn := range []string{"hotel", "flight"} {
		_, lock, _, _ := f.rts[fn].layer().stateRead("inv", "capacity")
		if !lock.IsNull() {
			t.Errorf("%s lock leaked: %v", fn, lock)
		}
	}
}

func seedCapacity(t *testing.T, f *fixture, fn string, n int64) {
	t.Helper()
	rt := f.rts[fn]
	d := daal{rt: rt, table: rt.dataTable("inv")}
	if _, err := d.loggedWrite("capacity", "seed#0.1", setTo(dynamo.NInt(n))); err != nil {
		t.Fatal(err)
	}
}

func TestWaitDieYoungerAborts(t *testing.T) {
	// An older transaction holds the lock; a younger one must die, not
	// wait forever (Fig 11).
	f := newFixture(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	f.fn("bank", func(e *Env, in Value) (Value, error) {
		role := in.Str()
		err := e.Transaction(func() error {
			if _, err := e.Read("acct", "hot"); err != nil {
				return err
			}
			if role == "older" {
				close(entered)
				<-release
			}
			return nil
		})
		if errors.Is(err, ErrTxnAborted) {
			return dynamo.S("aborted"), nil
		}
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("committed"), nil
	}, "acct")

	var older Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		older = f.mustInvoke("bank", dynamo.S("older"))
	}()
	<-entered
	// The younger transaction starts strictly later (timestamps are
	// microseconds; spin until distinct).
	time.Sleep(time.Millisecond)
	younger := f.mustInvoke("bank", dynamo.S("younger"))
	close(release)
	wg.Wait()
	if older.Str() != "committed" {
		t.Errorf("older = %v", older)
	}
	if younger.Str() != "aborted" {
		t.Errorf("younger = %v, want aborted (wait-die)", younger)
	}
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	// Serializable isolation under contention: concurrent transfers between
	// three accounts never create or destroy money and never drive an
	// account negative.
	f := newFixture(t, withConfig(Config{RowCap: 8, T: DefaultT, LockRetryMax: 200}))
	f.fn("bank", transferBody, "acct")
	seedAccounts(t, f, "bank", map[string]int64{"a": 100, "b": 100, "c": 100})
	accounts := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from := accounts[i%3]
			to := accounts[(i+1)%3]
			f.invoke("bank", dynamo.M(map[string]Value{ //nolint:errcheck
				"from": dynamo.S(from), "to": dynamo.S(to), "amount": dynamo.NInt(int64(1 + i%5)),
			}))
		}(i)
	}
	wg.Wait()
	f.recoverAll() // finish any aborted-but-pending instances
	total := int64(0)
	for _, a := range accounts {
		v := f.readData("bank", "acct", a)
		if v.Int() < 0 {
			t.Errorf("account %s negative: %v", a, v)
		}
		total += v.Int()
	}
	if total != 300 {
		t.Errorf("total = %d, want 300 (money not conserved)", total)
	}
	// No lock survives.
	for _, a := range accounts {
		_, lock, _, _ := f.rts["bank"].layer().stateRead("acct", a)
		if !lock.IsNull() {
			t.Errorf("lock on %s leaked: %v", a, lock)
		}
	}
}

func TestTransactionCrashDuringCommitRecovers(t *testing.T) {
	// Kill the owner between shadow-flush and lock-release; the intent
	// collector must finish the commit (§6.2: "Beldi's exactly-once
	// semantics ensure that once the SSF instance is re-executed, it will
	// pick up from where it left off").
	plan := &platform.CrashOnce{Function: "bank", Label: "txnflush:post:0.000009"}
	f := newFixture(t, withFaults(plan))
	f.fn("bank", transferBody, "acct")
	seedAccounts(t, f, "bank", map[string]int64{"a": 100, "b": 50})
	in := dynamo.M(map[string]Value{"from": dynamo.S("a"), "to": dynamo.S("b"), "amount": dynamo.NInt(30)})
	_, err := f.invoke("bank", in)
	if err == nil {
		// The chosen label may not exist on this code path; require it to
		// have fired for the test to mean anything.
		if plan.Fired() {
			t.Fatal("crash fired but invocation succeeded")
		}
		t.Skip("crash label not reached; covered by the sweep test")
	}
	f.recoverAll()
	a := f.readData("bank", "acct", "a").Int()
	b := f.readData("bank", "acct", "b").Int()
	if a+b != 150 {
		t.Errorf("money not conserved after commit crash: a=%d b=%d", a, b)
	}
	if a != 70 || b != 80 {
		t.Errorf("commit incomplete: a=%d b=%d, want 70/80", a, b)
	}
}

func TestCrossSSFTransactionCrashSweep(t *testing.T) {
	// The heavyweight one: crash every op boundary of all three SSFs in a
	// cross-SSF transaction and require atomic commit after recovery.
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	build := func(f *fixture) {
		reserve := func(e *Env, in Value) (Value, error) {
			cap, err := e.Read("inv", "capacity")
			if err != nil {
				return dynamo.Null, err
			}
			if cap.Int() < 1 {
				return dynamo.Null, ErrTxnAborted
			}
			if err := e.Write("inv", "capacity", dynamo.NInt(cap.Int()-1)); err != nil {
				return dynamo.Null, err
			}
			return dynamo.S("reserved"), nil
		}
		f.fn("hotel", reserve, "inv")
		f.fn("flight", reserve, "inv")
		f.fn("trip", func(e *Env, in Value) (Value, error) {
			err := e.Transaction(func() error {
				if _, err := e.SyncInvoke("hotel", dynamo.Null); err != nil {
					return err
				}
				_, err := e.SyncInvoke("flight", dynamo.Null)
				return err
			})
			if errors.Is(err, ErrTxnAborted) {
				return dynamo.S("aborted"), nil
			}
			if err != nil {
				return dynamo.Null, err
			}
			return dynamo.S("booked"), nil
		})
		seedCapacity(t, f, "hotel", 5)
		seedCapacity(t, f, "flight", 5)
	}
	workload := func(f *fixture) error {
		ev := envelope{Kind: kindCall, InstanceID: "trip-1", Input: dynamo.Null}
		f.plat.Invoke("trip", ev.encode()) //nolint:errcheck // crash expected
		return nil
	}
	check := func(f *fixture, label string) {
		f.recoverAll()
		h := f.readData("hotel", "inv", "capacity").Int()
		fl := f.readData("flight", "inv", "capacity").Int()
		if h != 4 || fl != 4 {
			t.Errorf("%s: capacities h=%d f=%d, want 4/4 (atomicity violated)", label, h, fl)
		}
		for _, fn := range []string{"hotel", "flight"} {
			_, lock, _, _ := f.rts[fn].layer().stateRead("inv", "capacity")
			if !lock.IsNull() {
				t.Errorf("%s: %s lock leaked: %v", label, fn, lock)
			}
		}
	}
	crashSweep(t, []string{"trip", "hotel", "flight"}, build, workload, check)
}

func TestOpacityDoomedTransactionSeesConsistentSnapshot(t *testing.T) {
	// Figure 12's scenario: a transaction that reads x and y with the
	// invariant x == y must never observe a half-applied update, even if it
	// is doomed to abort. With 2PL both reads lock, so the half-state is
	// unobservable.
	f := newFixture(t, withConfig(Config{RowCap: 8, T: DefaultT, LockRetryMax: 400}))
	f.fn("inc", func(e *Env, in Value) (Value, error) {
		err := e.Transaction(func() error {
			x, err := e.Read("kv", "x")
			if err != nil {
				return err
			}
			y, err := e.Read("kv", "y")
			if err != nil {
				return err
			}
			if x.Int() != y.Int() {
				return fmt.Errorf("opacity violated: x=%d y=%d", x.Int(), y.Int())
			}
			if err := e.Write("kv", "x", dynamo.NInt(x.Int()+1)); err != nil {
				return err
			}
			return e.Write("kv", "y", dynamo.NInt(y.Int()+1))
		})
		if errors.Is(err, ErrTxnAborted) {
			return dynamo.S("aborted"), nil
		}
		if err != nil {
			return dynamo.Null, err
		}
		return dynamo.S("ok"), nil
	}, "kv")
	rt := f.rts["inc"]
	for _, k := range []string{"x", "y"} {
		d := daal{rt: rt, table: rt.dataTable("kv")}
		if _, err := d.loggedWrite(k, "seed#0.1", setTo(dynamo.NInt(0))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.invoke("inc", dynamo.Null) //nolint:errcheck // aborts are fine; inconsistency is not
		}()
	}
	wg.Wait()
	f.recoverAll()
	x := f.readData("inc", "kv", "x").Int()
	y := f.readData("inc", "kv", "y").Int()
	if x != y {
		t.Errorf("final x=%d y=%d", x, y)
	}
}

func TestNonTransactionalSSFInsideTransaction(t *testing.T) {
	// §6.2: an SSF with no begin/end of its own, invoked inside a
	// transaction, inherits the context and locks automatically.
	f := newFixture(t)
	f.fn("plain", func(e *Env, in Value) (Value, error) {
		v, err := e.Read("kv", "n")
		if err != nil {
			return dynamo.Null, err
		}
		if e.TxnID() == "" {
			return dynamo.Null, errors.New("context not inherited")
		}
		return dynamo.Null, e.Write("kv", "n", dynamo.NInt(v.Int()+1))
	}, "kv")
	f.fn("owner", func(e *Env, in Value) (Value, error) {
		err := e.Transaction(func() error {
			_, err := e.SyncInvoke("plain", dynamo.Null)
			return err
		})
		return dynamo.S("done"), err
	})
	f.mustInvoke("owner", dynamo.Null)
	if got := f.readData("plain", "kv", "n"); got.Int() != 1 {
		t.Errorf("n = %v", got)
	}
	_, lock, _, _ := f.rts["plain"].layer().stateRead("kv", "n")
	if !lock.IsNull() {
		t.Errorf("inherited txn leaked lock: %v", lock)
	}
}

func TestAsyncInvokeRejectedInTransaction(t *testing.T) {
	f := newFixture(t)
	f.fn("bg", counterBody, "counter")
	f.fn("owner", func(e *Env, in Value) (Value, error) {
		err := e.Transaction(func() error {
			return e.AsyncInvoke("bg", dynamo.Null)
		})
		if errors.Is(err, ErrTxnAborted) {
			return dynamo.S("aborted"), nil
		}
		return dynamo.Null, err
	})
	out := f.mustInvoke("owner", dynamo.Null)
	if out.Str() != "aborted" {
		t.Errorf("async-in-txn should abort the transaction, got %v", out)
	}
}

func TestSequentialTransactionsDistinctIDs(t *testing.T) {
	// Two transactions in one instance must get distinct ids (registries
	// and locks key on them).
	f := newFixture(t)
	var ids []string
	f.fn("twice", func(e *Env, in Value) (Value, error) {
		for i := 0; i < 2; i++ {
			err := e.Transaction(func() error {
				ids = append(ids, e.TxnID())
				return e.Write("kv", "k", dynamo.NInt(int64(i)))
			})
			if err != nil {
				return dynamo.Null, err
			}
		}
		return dynamo.S("done"), nil
	}, "kv")
	f.mustInvoke("twice", dynamo.Null)
	if len(ids) != 2 || ids[0] == ids[1] || ids[0] == "" {
		t.Errorf("txn ids = %v", ids)
	}
}
