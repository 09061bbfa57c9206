package beldi_test

import (
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/uuid"
	"repro/internal/walstore"
)

// Watermark fencing at every effect site. The speculation overlay
// (DeploymentOptions.Speculation) lets a workflow run ahead of durability;
// the contract that makes this safe is that no externally visible effect —
// the entry reply, a promise post, a cross-SSF async send, a transaction
// commit, a queue ack — outruns the durability watermark. These tests pin
// that contract deterministically: each one opens a "generation 1"
// deployment whose overlay runs in ManualFlush mode (nothing becomes
// durable except through an explicit fence or FlushStep — the sharpest
// possible kill window), drives a workflow into the crack between the
// effect and its durability with platform.CrashOnce, kills the worker with
// Pipeline().DropAndClose() (the crash model: the speculation tail is
// lost, never a torn interleaving of it), and then audits the base through
// a plain generation-2 deployment: the effect must be absent after
// recovery, and a rerun — client retry, collector restart, or queue
// redelivery, whichever owns that effect site — must land it exactly once.
// Both storage backends run every test; CI additionally runs this file
// under -race.

// specBases enumerates the base backends the fencing suite runs over.
func specBases(t *testing.T) map[string]func(t *testing.T) beldi.Backend {
	t.Helper()
	return map[string]func(t *testing.T) beldi.Backend{
		"memory": func(t *testing.T) beldi.Backend { return dynamo.NewStore() },
		"wal": func(t *testing.T) beldi.Backend {
			st, err := walstore.Open(t.TempDir(), walstore.Options{})
			if err != nil {
				t.Fatalf("walstore: %v", err)
			}
			t.Cleanup(func() { _ = st.Close() })
			return st
		},
	}
}

// specGen opens one process generation over base: a platform with its own
// request-id space and a deployment. With spec set the deployment
// speculates through a ManualFlush overlay; dispatch, when non-nil,
// intercepts the platform's async handoffs (so a test can hold a callee's
// run in its hand and drop it with the dead worker). T is large enough
// that the garbage collector never reaps mid-test; ICMinAge is short so
// collectors restart pending intents promptly.
func specGen(base beldi.Backend, prefix string, spec bool, dispatch func(func())) (*platform.Platform, *beldi.Deployment) {
	plat := platform.New(platform.Options{
		IDs:           &uuid.Seq{Prefix: prefix},
		AsyncDispatch: dispatch,
	})
	opts := beldi.DeploymentOptions{
		Store: base, Platform: plat,
		Config: beldi.Config{T: 5 * time.Second, ICMinAge: time.Millisecond},
	}
	if spec {
		opts.Speculation = &beldi.SpeculationOptions{ManualFlush: true}
	}
	return plat, beldi.NewDeployment(opts)
}

// peekInt reads fn's durable state through d, treating absent as 0.
func peekInt(t *testing.T, d *beldi.Deployment, fn, table, key string) int64 {
	t.Helper()
	v, err := beldi.PeekState(d.Runtime(fn), table, key)
	if err != nil {
		t.Fatalf("peek %s/%s: %v", table, key, err)
	}
	if v.IsNull() {
		return 0
	}
	return v.Int()
}

// collectUntil drives d's collectors until cond holds.
func collectUntil(t *testing.T, d *beldi.Deployment, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("collectors never reached: %s", what)
		}
		time.Sleep(2 * time.Millisecond)
		d.RunAllCollectors() //nolint:errcheck // next round retries
	}
}

// settle runs a few extra collector passes: any duplicate execution they
// could provoke must show up before the exactly-once asserts below.
func settle(d *beldi.Deployment) {
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		d.RunAllCollectors() //nolint:errcheck // settling only
	}
}

func incBody(table, key string) beldi.Body {
	return func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		v, err := e.Read(table, key)
		if err != nil {
			return beldi.Null, err
		}
		next := beldi.Int(v.Int() + 1)
		if err := e.Write(table, key, next); err != nil {
			return beldi.Null, err
		}
		return next, nil
	}
}

// TestSpeculationFenceEntryReply pins the reply effect site: a successful
// invoke must not reply before its steps are durable (the fence), and a
// request that dies before the fence must leave nothing behind — the
// client got an error, not a reply, so absence IS exactly-once.
func TestSpeculationFenceEntryReply(t *testing.T) {
	for name, open := range specBases(t) {
		t.Run(name, func(t *testing.T) {
			base := open(t)
			plat1, d1 := specGen(base, "g1", true, nil)
			d1.Function("counter", incBody("state", "n"), "state")

			if out, err := d1.Invoke("counter", beldi.Null); err != nil || out.Int() != 1 {
				t.Fatalf("invoke: %v %v", out, err)
			}
			st := d1.Pipeline().Snapshot()
			if st.Fences == 0 || st.FlushedRows == 0 {
				t.Fatalf("entry reply released without a fence flush: %+v", st)
			}
			// Audit durability through a plain deployment over the same
			// base, while generation 1 is still live: the reply we just
			// received implies the write is in the base, not the shadow.
			_, audit := specGen(base, "aud", false, nil)
			audit.Function("counter", incBody("state", "n"), "state")
			if got := peekInt(t, audit, "counter", "state", "n"); got != 1 {
				t.Fatalf("reply released before the write was durable: n = %d", got)
			}

			// A second request crashes after its body but before the
			// reply: everything it speculated sits above the watermark.
			plat1.SetFaults(&platform.CrashOnce{Function: "counter", Label: "body:done"})
			if _, err := d1.Invoke("counter", beldi.Null); err == nil {
				t.Fatal("crashed invoke returned a reply")
			}
			if d1.Pipeline().Lag() == 0 {
				t.Fatal("crashed request left nothing speculative")
			}
			d1.Pipeline().DropAndClose()

			if got := peekInt(t, audit, "counter", "state", "n"); got != 1 {
				t.Fatalf("un-replied increment leaked past the watermark: n = %d", got)
			}
			audit.RunAllCollectors() //nolint:errcheck // nothing durable to collect
			if got := peekInt(t, audit, "counter", "state", "n"); got != 1 {
				t.Fatalf("collector resurrected a dropped request: n = %d", got)
			}

			// The client retries against the recovered generation:
			// exactly one more increment.
			if out, err := audit.Invoke("counter", beldi.Null); err != nil || out.Int() != 2 {
				t.Fatalf("retry: %v %v", out, err)
			}
			if err := audit.FsckAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpeculationFlushedPrefixRecoversViaCollector splits one request
// across the watermark: the committer flushes the intent and the state
// write, the worker dies holding the done marker and the reply. The
// generation-2 collector owns the pending intent and must finish it
// exactly once — the flushed write replays instead of re-applying.
func TestSpeculationFlushedPrefixRecoversViaCollector(t *testing.T) {
	for name, open := range specBases(t) {
		t.Run(name, func(t *testing.T) {
			base := open(t)
			plat1, d1 := specGen(base, "g1", true, nil)
			d1.Function("counter", incBody("state", "n"), "state")
			plat1.SetFaults(&platform.CrashOnce{Function: "counter", Label: "body:done"})
			if _, err := d1.Invoke("counter", beldi.Null); err == nil {
				t.Fatal("crashed invoke returned a reply")
			}
			// The committer gets its batch in before the kill: intent,
			// logs, and state write become the durable prefix.
			for {
				more, err := d1.Pipeline().FlushStep()
				if err != nil {
					t.Fatalf("flush: %v", err)
				}
				if !more {
					break
				}
			}
			d1.Pipeline().DropAndClose()

			_, d2 := specGen(base, "g2", false, nil)
			d2.Function("counter", incBody("state", "n"), "state")
			if got := peekInt(t, d2, "counter", "state", "n"); got != 1 {
				t.Fatalf("flushed prefix missing: n = %d", got)
			}
			rt := d2.Runtime("counter")
			restarted := 0
			deadline := time.Now().Add(10 * time.Second)
			for restarted == 0 {
				if time.Now().After(deadline) {
					t.Fatal("collector never restarted the pending intent")
				}
				time.Sleep(2 * time.Millisecond)
				n, err := rt.RunIntentCollector()
				if err == nil {
					restarted += n
				}
			}
			if got := peekInt(t, d2, "counter", "state", "n"); got != 1 {
				t.Fatalf("collector re-applied the flushed write: n = %d", got)
			}
			// The intent is done now: further passes find nothing.
			time.Sleep(2 * time.Millisecond)
			if n, err := rt.RunIntentCollector(); err != nil || n != 0 {
				t.Fatalf("intent still pending after collection: n=%d err=%v", n, err)
			}
			if err := d2.FsckAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpeculationDropsUnfencedAsyncSend pins the cross-SSF async send: the
// callee's registered intent and the in-process handoff both die with the
// worker when the caller never reached its fence, and the retried request
// sends exactly once.
func TestSpeculationDropsUnfencedAsyncSend(t *testing.T) {
	front := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		if err := e.AsyncInvoke("worker", beldi.Null); err != nil {
			return beldi.Null, err
		}
		return beldi.Null, nil
	}
	for name, open := range specBases(t) {
		t.Run(name, func(t *testing.T) {
			base := open(t)
			var held []func()
			plat1, d1 := specGen(base, "g1", true, func(run func()) { held = append(held, run) })
			d1.Function("worker", incBody("count", "n"), "count")
			d1.Function("front", front)

			// Crash after the send (and the done marker) but before the
			// reply: the whole workflow, send included, is speculative.
			plat1.SetFaults(&platform.CrashOnce{Function: "front", Label: "done:marked"})
			if _, err := d1.Invoke("front", beldi.Null); err == nil {
				t.Fatal("crashed invoke returned a reply")
			}
			if len(held) == 0 {
				t.Fatal("async run was never handed to the platform")
			}
			if d1.Pipeline().Lag() == 0 {
				t.Fatal("async send left nothing speculative")
			}
			d1.Pipeline().DropAndClose()
			held = nil // the captured run dies with the worker

			plat2, d2 := specGen(base, "g2", false, nil)
			d2.Function("worker", incBody("count", "n"), "count")
			d2.Function("front", front)

			// Absent: no registered intent survived, so collectors find
			// nothing to finish.
			d2.RunAllCollectors() //nolint:errcheck // nothing durable to collect
			if got := peekInt(t, d2, "worker", "count", "n"); got != 0 {
				t.Fatalf("dropped async send executed anyway: n = %d", got)
			}

			// The retried request sends exactly once.
			if _, err := d2.Invoke("front", beldi.Null); err != nil {
				t.Fatalf("retry: %v", err)
			}
			plat2.Drain()
			collectUntil(t, d2, "worker ran once", func() bool {
				return peekInt(t, d2, "worker", "count", "n") == 1
			})
			settle(d2)
			if got := peekInt(t, d2, "worker", "count", "n"); got != 1 {
				t.Fatalf("worker effect ran %d times, want 1", got)
			}
			if err := d2.FsckAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpeculationDropsUnfencedPromisePost pins the promise-post effect
// site: the callee posts its result speculatively and dies before the
// batch commits. The post must be absent from the parent's durable
// invoke-log row, and the callee's collector — its intent WAS fenced durable by the parent's reply
// — must rerun the body and post exactly once.
func TestSpeculationDropsUnfencedPromisePost(t *testing.T) {
	for name, open := range specBases(t) {
		t.Run(name, func(t *testing.T) {
			base := open(t)
			var held []func()
			var pid string
			parent := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
				p, err := e.AsyncInvokePromise("work", beldi.Null)
				if err != nil {
					return beldi.Null, err
				}
				pid = p.ID()
				return beldi.Str(p.ID()), nil
			}
			plat1, d1 := specGen(base, "g1", true, func(run func()) { held = append(held, run) })
			d1.Function("work", incBody("count", "n"), "count")
			d1.Function("parent", parent, "state")

			// The parent completes: its fence commits the work intent
			// (carrying the reply coordinates) to the base.
			if _, err := d1.Invoke("parent", beldi.Null); err != nil {
				t.Fatalf("parent: %v", err)
			}
			if len(held) != 1 || pid == "" {
				t.Fatalf("captured %d runs, pid %q", len(held), pid)
			}
			// The work body runs and posts its result — speculatively —
			// then the worker dies before any of it is durable.
			plat1.SetFaults(&platform.CrashOnce{Function: "work", Label: "promise:posted"})
			held[0]()
			if d1.Pipeline().Lag() == 0 {
				t.Fatal("speculative post left nothing above the watermark")
			}
			d1.Pipeline().DropAndClose()

			// Absent: the post never reached the durable row that logged the
			// call, which the parent's fence did commit.
			posted := func() bool {
				rows, err := base.Scan("parent.invokelog", dynamo.QueryOpts{
					Filter: dynamo.Eq(dynamo.A("CalleeId"), dynamo.S(pid))})
				if err != nil || len(rows) != 1 {
					t.Fatalf("parent's invoke-log row for %s: %v, err %v", pid, rows, err)
				}
				_, ok := rows[0]["Posted"]
				return ok
			}
			if posted() {
				t.Fatal("post outran the watermark")
			}

			_, d2 := specGen(base, "g2", false, nil)
			d2.Function("work", incBody("count", "n"), "count")
			d2.Function("parent", parent, "state")
			collectUntil(t, d2, "work intent finished and posted", func() bool {
				return posted() && peekInt(t, d2, "work", "count", "n") == 1
			})
			settle(d2)
			if got := peekInt(t, d2, "work", "count", "n"); got != 1 {
				t.Fatalf("work effect ran %d times, want 1", got)
			}
			if err := d2.FsckAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpeculationDropsUnfencedTxnCommit pins the transaction-commit effect
// site: a transaction that committed speculatively vanishes atomically
// with the dead worker — both writes or neither, no dangling locks — and
// the retried request commits exactly once.
func TestSpeculationDropsUnfencedTxnCommit(t *testing.T) {
	// One function owns the accounts (tables are per-function): input
	// "seed" funds them with plain writes, anything else moves 10 from a
	// to b transactionally.
	pay := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		if in.Str() == "seed" {
			if err := e.Write("acct", "a", beldi.Int(100)); err != nil {
				return beldi.Null, err
			}
			return beldi.Null, e.Write("acct", "b", beldi.Int(0))
		}
		err := e.Transaction(func() error {
			a, err := e.Read("acct", "a")
			if err != nil {
				return err
			}
			if err := e.Write("acct", "a", beldi.Int(a.Int()-10)); err != nil {
				return err
			}
			b, err := e.Read("acct", "b")
			if err != nil {
				return err
			}
			return e.Write("acct", "b", beldi.Int(b.Int()+10))
		})
		return beldi.Null, err
	}
	for name, open := range specBases(t) {
		t.Run(name, func(t *testing.T) {
			base := open(t)
			plat1, d1 := specGen(base, "g1", true, nil)
			d1.Function("pay", pay, "acct")
			if _, err := d1.Invoke("pay", beldi.Str("seed")); err != nil {
				t.Fatalf("seed: %v", err)
			}

			// The transaction commits — speculatively — and the worker
			// dies before the reply fence.
			plat1.SetFaults(&platform.CrashOnce{Function: "pay", Label: "body:done"})
			if _, err := d1.Invoke("pay", beldi.Null); err == nil {
				t.Fatal("crashed invoke returned a reply")
			}
			if d1.Pipeline().Lag() == 0 {
				t.Fatal("committed transaction left nothing speculative")
			}
			d1.Pipeline().DropAndClose()

			_, d2 := specGen(base, "g2", false, nil)
			d2.Function("pay", pay, "acct")
			a := peekInt(t, d2, "pay", "acct", "a")
			b := peekInt(t, d2, "pay", "acct", "b")
			if a != 100 || b != 0 {
				t.Fatalf("speculative commit leaked (or tore): a=%d b=%d", a, b)
			}
			d2.RunAllCollectors() //nolint:errcheck // nothing durable to collect
			if err := d2.FsckAll(); err != nil {
				t.Fatalf("dropped transaction left debris: %v", err)
			}

			// The retry commits exactly once, atomically.
			if _, err := d2.Invoke("pay", beldi.Null); err != nil {
				t.Fatalf("retry: %v", err)
			}
			settle(d2)
			a = peekInt(t, d2, "pay", "acct", "a")
			b = peekInt(t, d2, "pay", "acct", "b")
			if a != 90 || b != 10 {
				t.Fatalf("retried commit not exactly-once: a=%d b=%d", a, b)
			}
			if err := d2.FsckAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpeculationDropsUnfencedQueueAck pins the completion of an async run
// under durable async, the effect site a queue ack used to be: the callee's
// registered intent was fenced durable by the caller's reply, but the run —
// the worker's effect and its done mark — ran speculatively and dies with
// the worker. The intent must still be pending, and the collector's relaunch
// processes it exactly once.
func TestSpeculationDropsUnfencedQueueAck(t *testing.T) {
	front := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		if err := e.AsyncInvoke("worker", beldi.Null); err != nil {
			return beldi.Null, err
		}
		return beldi.Null, nil
	}
	for name, open := range specBases(t) {
		t.Run(name, func(t *testing.T) {
			base := open(t)
			var held []func()
			_, d1 := specGen(base, "g1", true, func(run func()) { held = append(held, run) })
			d1.Function("worker", incBody("count", "n"), "count")
			d1.Function("front", front)
			d1.EnableDurableAsync(beldi.DurableAsyncOptions{})

			if _, err := d1.Invoke("front", beldi.Null); err != nil {
				t.Fatalf("front: %v", err)
			}
			// Run the fenced-durable registration's fire; everything the run
			// does stays above the watermark.
			if len(held) != 1 {
				t.Fatalf("%d fires held, want the worker's", len(held))
			}
			held[0]()
			if d1.Pipeline().Lag() == 0 {
				t.Fatal("the run left nothing speculative")
			}
			d1.Pipeline().DropAndClose()

			plat2, d2 := specGen(base, "g2", false, nil)
			d2.Function("worker", incBody("count", "n"), "count")
			d2.Function("front", front)
			d2.EnableDurableAsync(beldi.DurableAsyncOptions{})
			if got := peekInt(t, d2, "worker", "count", "n"); got != 0 {
				t.Fatalf("dropped run executed anyway: n = %d", got)
			}
			if n, err := core.PendingIntents(base, "worker"); err != nil || n != 1 {
				t.Fatalf("worker's pending intents = %d (%v), want the registered one", n, err)
			}

			// The relaunch processes the intent exactly once.
			plat2.Drain()
			collectUntil(t, d2, "worker ran once", func() bool {
				return peekInt(t, d2, "worker", "count", "n") == 1
			})
			settle(d2)
			if got := peekInt(t, d2, "worker", "count", "n"); got != 1 {
				t.Fatalf("worker effect ran %d times, want 1", got)
			}
			if err := d2.FsckAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
