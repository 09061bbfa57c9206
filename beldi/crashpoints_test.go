package beldi_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/platform"
)

// The crash-point enumeration checks exactly-once the way the extended
// version's case analysis argues it: at every point where an SSF can die.
// crashlabels.golden lists every crash point of the golden run in order, and
// the run is sequential, so the plan's i-th ShouldCrash call is the golden's
// line i. For each line the run is repeated on a fresh deployment that dies
// there once; the collectors then finish whatever the crash left pending and
// FsckAll audits the tables. The oracle is the crash-free run: every client
// reply (or, for a request the crash failed, its entry intent's Ret after
// recovery) and every key of every data table must equal it.

// crashRecoveryConfig lets the intent collector restart a pending intent as
// soon as it runs; the GC's bound keeps its default, so no intent is
// collected while the run still reads it. An await whose callee died gives
// up after one wait: the collectors, not the awaiter, finish the callee.
var crashRecoveryConfig = beldi.Config{ICMinAge: time.Nanosecond, AwaitRetryMax: 1}

// crashAtCall is a FaultPlan that kills the instance at its n-th ShouldCrash
// call and then disarms; label is the point it killed at. The n-th call is
// made by a golden call, which runs on the test's goroutine.
type crashAtCall struct {
	n     int
	calls atomic.Int64
	label string
}

func (c *crashAtCall) ShouldCrash(fn, label string, opIndex int) bool {
	if c.calls.Add(1) != int64(c.n) {
		return false
	}
	c.label = fmt.Sprintf("%s %d %s", fn, opIndex, label)
	return true
}

// pauseAtCall is a FaultPlan that, at its n-th ShouldCrash call, holds the
// instance there while a collection pass (collect, RunAllCollectors under
// crashRecoveryConfig) relaunches every pending intent — the paused one
// included — and then lets the paused attempt go on as a zombie. It never
// crashes anything. The pass runs on its own goroutine, and the asynchronous
// fires it makes run inline on it; the plan waits for the pass to return, or
// for relaunchSettle if it blocks on the paused attempt (blocked), before the
// zombie resumes. settled waits for the pass either way.
//
// A zombie may outlive T only by its done mark: the store op an instance
// issued in time that lands late (the simulator's latedone kind). So where
// the paused attempt is the workflow's entry at body:done, with nothing left
// to do but that mark, the pass then moves the clock past T and collects
// again, which takes the relaunch's finished intent before the mark lands.
//
// In pair mode the zombie goes first instead: the pass is held when it
// reaches the paused function's body:done, about to deliver, and the zombie
// resumes then and runs its golden call to the end before the pass goes on.
// That is the order in which a zombie's callback lands after its relaunch
// was launched and before the relaunch delivers. A pass held for
// relaunchSettle goes on anyway (zombieWaited): the zombie is waiting on it.
type pauseAtCall struct {
	n       int
	pair    bool
	calls   atomic.Int64
	label   string
	blocked bool
	entry   string // the function of the golden call in flight
	collect func() error
	clk     *jumpClock
	done    chan error // the pass's outcome, nil until the pause

	fn           string      // the paused function
	paused       atomic.Bool // the zombie is held: ShouldCrash calls come from the pass
	heldOnce     atomic.Bool
	held         chan struct{} // pair: closed when the pass is held before delivering
	release      chan struct{}
	releaseOnce  sync.Once
	zombieWaited atomic.Bool
}

// relaunchSettle is how long a pause waits for its collection pass before
// it counts the pass as blocked on the paused attempt, and how long a pair's
// held pass waits for the zombie.
const relaunchSettle = 100 * time.Millisecond

func (p *pauseAtCall) ShouldCrash(fn, label string, opIndex int) bool {
	if p.pair && p.paused.Load() && fn == p.fn && label == "body:done" && p.heldOnce.CompareAndSwap(false, true) {
		close(p.held)
		select {
		case <-p.release:
		case <-time.After(relaunchSettle):
			p.zombieWaited.Store(true)
		}
		return false
	}
	if p.calls.Add(1) != int64(p.n) {
		return false
	}
	p.label = fmt.Sprintf("%s %d %s", fn, opIndex, label)
	p.fn = fn
	p.done = make(chan error, 1)
	p.held, p.release = make(chan struct{}), make(chan struct{})
	p.paused.Store(true)
	late := !p.pair && fn == p.entry && label == "body:done"
	go func() {
		err := p.collect()
		if err == nil && late {
			p.clk.jump(2*core.DefaultT + time.Millisecond)
			err = p.collect()
		}
		p.done <- err
	}()
	select {
	case err := <-p.done:
		p.done <- err
	case <-p.held:
	case <-time.After(relaunchSettle):
		p.blocked = true
	}
	p.paused.Store(false)
	return false
}

// jumpClock is the real clock moved forward by every jump so far.
type jumpClock struct {
	clock.Real
	off atomic.Int64
}

func (c *jumpClock) Now() time.Time       { return time.Now().Add(time.Duration(c.off.Load())) }
func (c *jumpClock) jump(d time.Duration) { c.off.Add(int64(d)) }

// settled lets a pair's held pass go on, waits for the pause's collection
// pass, if one ran since the last call, and returns its error.
func (p *pauseAtCall) settled() error {
	if p.done == nil {
		return nil
	}
	p.releaseOnce.Do(func() { close(p.release) })
	err := <-p.done
	p.done = nil
	return err
}

// goldenOutcome is what a golden run leaves: one reply per call, and every
// data table's keys with their values ("<fn>/<table>/<key>").
type goldenOutcome struct {
	replies []beldi.Value
	state   map[string]beldi.Value
}

// runGoldenRecovered runs the golden calls under plan (nil for none). A call
// the crash failed is recovered at once, before the next call, as a client
// that waits for its workflow would see it; its reply is the entry intent's
// Ret. The run then settles, passes FsckAll, and its outcome is read.
func runGoldenRecovered(t *testing.T, plan platform.FaultPlan) (goldenOutcome, error) {
	t.Helper()
	clk := &jumpClock{}
	d, plat, store := goldenDeployment(t, nil, crashRecoveryConfig, clk)
	pause, _ := plan.(*pauseAtCall)
	if pause != nil {
		pause.collect, pause.clk = d.RunAllCollectors, clk
	}
	if plan != nil {
		plat.SetFaults(plan)
	}
	var out goldenOutcome
	for i, c := range goldenCalls() {
		before, err := intentIDs(store, c.fn)
		if err != nil {
			return out, err
		}
		if pause != nil {
			pause.entry = c.fn
		}
		reply, err := d.Invoke(c.fn, c.in)
		if pause != nil {
			if perr := pause.settled(); perr != nil {
				return out, fmt.Errorf("call %d (%s): relaunch pass: %w", i, c.fn, perr)
			}
		}
		if err != nil {
			if reply, err = recoveredReply(d, plat, store, c.fn, before); err != nil {
				return out, fmt.Errorf("call %d (%s): %w", i, c.fn, err)
			}
		}
		out.replies = append(out.replies, reply)
	}
	if err := settleGolden(d, plat, store); err != nil {
		return out, err
	}
	if err := d.FsckAll(); err != nil {
		return out, err
	}
	var err error
	out.state, err = dataState(d, store)
	return out, err
}

// intentIDs lists fn's intent ids.
func intentIDs(store *dynamo.Store, fn string) (map[string]bool, error) {
	rows, err := store.Scan(fn+".intent", dynamo.QueryOpts{})
	ids := make(map[string]bool, len(rows))
	for _, it := range rows {
		ids[it["InstanceId"].Str()] = true
	}
	return ids, err
}

// recoveredReply settles the deployment after a failed call to entry fn and
// returns the Ret of the one intent the call created.
func recoveredReply(d *beldi.Deployment, plat *platform.Platform, store *dynamo.Store, fn string, before map[string]bool) (beldi.Value, error) {
	if err := settleGolden(d, plat, store); err != nil {
		return beldi.Null, err
	}
	after, err := intentIDs(store, fn)
	if err != nil {
		return beldi.Null, err
	}
	var fresh []string
	for id := range after {
		if !before[id] {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) != 1 {
		return beldi.Null, fmt.Errorf("the failed call left %d new intents, want 1", len(fresh))
	}
	it, _, err := store.Get(fn+".intent", dynamo.HK(dynamo.S(fresh[0])))
	if err != nil {
		return beldi.Null, err
	}
	if !it["Done"].BoolVal() {
		return beldi.Null, fmt.Errorf("intent %s is not done after recovery", fresh[0])
	}
	return it["Ret"], nil
}

// settleGolden runs every collector until no intent of any function is pending.
func settleGolden(d *beldi.Deployment, plat *platform.Platform, store *dynamo.Store) error {
	for pass := 0; pass < 20; pass++ {
		if err := d.RunAllCollectors(); err != nil {
			return err
		}
		plat.Drain()
		pending := 0
		for _, fn := range d.Functions() {
			n, err := core.PendingIntents(store, fn)
			if err != nil {
				return err
			}
			pending += n
		}
		if pending == 0 {
			return nil
		}
	}
	return fmt.Errorf("intents still pending after 20 collector passes")
}

// dataState reads every key of every data table through PeekState.
func dataState(d *beldi.Deployment, store *dynamo.Store) (map[string]beldi.Value, error) {
	state := make(map[string]beldi.Value)
	for _, name := range store.TableNames() {
		fn, table, ok := strings.Cut(name, ".data.")
		if !ok || strings.HasSuffix(table, ".shadow") {
			continue
		}
		rows, err := store.Scan(name, dynamo.QueryOpts{Projection: []dynamo.Path{dynamo.A("Key")}})
		if err != nil {
			return nil, err
		}
		for _, it := range rows {
			key := it["Key"].Str()
			id := fn + "/" + table + "/" + key
			if _, seen := state[id]; seen {
				continue
			}
			if state[id], err = d.Runtime(fn).PeekState(table, key); err != nil {
				return nil, err
			}
		}
	}
	return state, nil
}

// diff describes how got differs from the crash-free want, "" when it does
// not.
func (want goldenOutcome) diff(got goldenOutcome) string {
	for i := range want.replies {
		if i >= len(got.replies) || !got.replies[i].Equal(want.replies[i]) {
			var g beldi.Value
			if i < len(got.replies) {
				g = got.replies[i]
			}
			return fmt.Sprintf("reply %d = %v, crash-free %v", i, g, want.replies[i])
		}
	}
	var ids []string
	for id := range got.state {
		ids = append(ids, id)
	}
	for id := range want.state {
		if _, ok := got.state[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !got.state[id].Equal(want.state[id]) {
			return fmt.Sprintf("%s = %v, crash-free %v", id, got.state[id], want.state[id])
		}
	}
	return ""
}

// goldenCrashPoints reads crashlabels.golden.
func goldenCrashPoints(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "crashlabels.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// enumerateCrashPoints crashes the golden run once at each golden point and
// returns, per point, "" or what went wrong; with firstOnly, it stops after
// the first point that goes wrong.
func enumerateCrashPoints(t *testing.T, want goldenOutcome, points []string, firstOnly bool) []string {
	t.Helper()
	failures := make([]string, len(points))
	for i, point := range points {
		plan := &crashAtCall{n: i + 1}
		got, err := runGoldenRecovered(t, plan)
		if failures[i] = checkPoint(t, want, got, err, i, point, plan.label); firstOnly && failures[i] != "" {
			return failures[:i+1]
		}
	}
	return failures
}

// enumerateRelaunchPoints pauses the golden run once at each of the given
// golden lines (1-based) and relaunches it there, in pair mode or not; see
// pauseAtCall. It returns, per line, "" or what went wrong, how many pauses
// found their relaunch blocked on the paused attempt, and how many held
// relaunches the zombie waited on.
func enumerateRelaunchPoints(t *testing.T, want goldenOutcome, points []string, lines []int, pair bool) (failures []string, blocked, waited int) {
	t.Helper()
	failures = make([]string, len(lines))
	for k, line := range lines {
		plan := &pauseAtCall{n: line, pair: pair}
		got, err := runGoldenRecovered(t, plan)
		failures[k] = checkPoint(t, want, got, err, line-1, points[line-1], plan.label)
		if plan.blocked {
			blocked++
		}
		if plan.zombieWaited.Load() {
			waited++
		}
	}
	return failures, blocked, waited
}

// checkPoint compares the outcome of a run faulted at golden line i+1 with
// the crash-free run: "" or what went wrong. A fault that hit another label
// means the run no longer follows the golden, and fails the test.
func checkPoint(t *testing.T, want, got goldenOutcome, err error, i int, point, label string) string {
	t.Helper()
	switch {
	case label != point:
		t.Fatalf("call %d faulted at %q, golden line %d is %q: the run is no longer the golden's", i+1, label, i+1, point)
	case err != nil:
		return err.Error()
	}
	return want.diff(got)
}

func TestCrashPointsMatchTheCrashFreeRun(t *testing.T) {
	start := time.Now()
	want, err := runGoldenRecovered(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := goldenCrashPoints(t)
	for i, f := range enumerateCrashPoints(t, want, points, false) {
		if f != "" {
			t.Errorf("crash at %s (line %d): %s", points[i], i+1, f)
		}
	}
	t.Logf("%d crash points in %v", len(points), time.Since(start))
}

// crashAll makes TestCrashPointsCatchReplayMutations count every point each
// mutation fails instead of stopping at its first; the nightly job sets it.
var crashAll = flag.Bool("crash.all", false, "count every crash point a replay mutation fails")

// TestCrashPointsCatchReplayMutations re-applies an effect on replay in
// three ways, each a core fault switch, and requires the enumeration to fail
// on some point for each.
func TestCrashPointsCatchReplayMutations(t *testing.T) {
	want, err := runGoldenRecovered(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := goldenCrashPoints(t)
	for _, m := range []struct {
		name  string
		fault *atomic.Bool
	}{
		{"DAALSkipsLoggedCheck", &core.FaultDAALSkipsLoggedCheck},
		{"ReinvokeIgnoresCalleeID", &core.FaultReinvokeIgnoresCalleeID},
		{"DoneBeforeFlush", &core.FaultDoneBeforeFlush},
	} {
		t.Run(m.name, func(t *testing.T) {
			m.fault.Store(true)
			defer m.fault.Store(false)
			failed, first := 0, ""
			for i, f := range enumerateCrashPoints(t, want, points, !*crashAll) {
				if f != "" {
					if failed == 0 {
						first = fmt.Sprintf("line %d %s: %s", i+1, points[i], f)
					}
					failed++
				}
			}
			if failed == 0 {
				t.Fatalf("no crash point fails with the mutation on")
			}
			if !*crashAll {
				t.Logf("first fails at %s", first)
				return
			}
			t.Logf("fails on %d of %d points; first: %s", failed, len(points), first)
		})
	}
}

// relaunchAll runs the relaunch enumeration at every golden point instead
// of relaunchPinned; the nightly job sets it.
var relaunchAll = flag.Bool("relaunch.all", false, "run the relaunch enumeration at every crash point")

// relaunchPinned are the lines where the zombie mutations of
// TestRelaunchPointsCatchZombieMutations first fail (52, a travel entry's
// body:done; 101, a hotel reservation's transactional read, before the
// shadow write a zombie's head-first update would apply again; 281, the
// fan's intent:logged; 323, once's first read, in pair mode): tier-1's
// mutation run, and part of its match run beside every seventh golden line.
var relaunchPinned = []int{52, 101, 281, 323}

// relaunchLines lists the golden lines the relaunch enumeration visits:
// every one under -relaunch.all, else the pinned lines and every every-th.
func relaunchLines(points []string, every int) []int {
	if *relaunchAll {
		every = 1
	}
	lines := append([]int(nil), relaunchPinned...)
	for line := 1; line <= len(points) && every > 0; line += every {
		lines = append(lines, line)
	}
	sort.Ints(lines)
	return slices.Compact(lines)
}

// TestRelaunchPointsMatchTheCrashFreeRun pauses the golden run at a golden
// point, lets the collectors relaunch what it left pending, and resumes the
// paused attempt as a zombie: one zombie at a time, after its relaunch and,
// in pair mode, before the relaunch delivers. The oracle is the crash-free
// run's replies and data, and FsckAll.
func TestRelaunchPointsMatchTheCrashFreeRun(t *testing.T) {
	want, err := runGoldenRecovered(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := goldenCrashPoints(t)
	lines := relaunchLines(points, 7)
	for _, pair := range []bool{false, true} {
		start := time.Now()
		failures, blocked, waited := enumerateRelaunchPoints(t, want, points, lines, pair)
		for k, f := range failures {
			if f != "" {
				t.Errorf("relaunch at %s (line %d, pair %v): %s", points[lines[k]-1], lines[k], pair, f)
			}
		}
		t.Logf("pair %v: %d of %d points in %v; the relaunch blocked on the paused attempt at %d, the zombie on the held relaunch at %d",
			pair, len(lines), len(points), time.Since(start), blocked, waited)
	}
}

// TestRelaunchPointsCatchZombieMutations turns on each of four zombie bugs
// — a differing logged read adopted, an unguarded done mark, the lazy
// intent's fifth rule dropped, a head-first write without its logged check
// — and requires the relaunch enumeration to fail on some point for each.
// The fifth rule refuses an effect-free callback that lands after a relaunch
// was launched and before the relaunch's own, so its mutation runs in pair
// mode. A crash-point replay is never a fresh execution, so only this
// enumeration sees the head-first mutation.
func TestRelaunchPointsCatchZombieMutations(t *testing.T) {
	want, err := runGoldenRecovered(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := goldenCrashPoints(t)
	lines := relaunchLines(points, 0)
	for _, m := range []struct {
		name  string
		fault *atomic.Bool
		pair  bool
	}{
		{"AdoptIgnoresDiffer", &core.FaultAdoptIgnoresDiffer, false},
		{"UnguardedIntentDone", &core.FaultUnguardedIntentDone, false},
		{"RelaunchLeavesRowOpen", &core.FaultRelaunchLeavesRowOpen, true},
		{"HeadFirstSkipsLoggedCheck", &core.FaultHeadFirstSkipsLoggedCheck, false},
	} {
		t.Run(m.name, func(t *testing.T) {
			m.fault.Store(true)
			defer m.fault.Store(false)
			failures, _, _ := enumerateRelaunchPoints(t, want, points, lines, m.pair)
			failed, first := 0, ""
			for k, f := range failures {
				if f != "" {
					if failed == 0 {
						first = fmt.Sprintf("line %d %s: %s", lines[k], points[lines[k]-1], f)
					}
					failed++
				}
			}
			if failed == 0 {
				t.Fatalf("no relaunch point fails with the mutation on")
			}
			t.Logf("fails on %d of %d points; first: %s", failed, len(lines), first)
		})
	}
}
