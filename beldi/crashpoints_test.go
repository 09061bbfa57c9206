package beldi_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/beldi"
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
// collected while the run still reads it.
var crashRecoveryConfig = beldi.Config{ICMinAge: time.Nanosecond}

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
	d, plat, store := goldenDeployment(t, nil, crashRecoveryConfig)
	if plan != nil {
		plat.SetFaults(plan)
	}
	var out goldenOutcome
	for i, c := range goldenCalls() {
		before, err := intentIDs(store, c.fn)
		if err != nil {
			return out, err
		}
		reply, err := d.Invoke(c.fn, c.in)
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
// returns, per point, "" or what went wrong.
func enumerateCrashPoints(t *testing.T, want goldenOutcome, points []string) []string {
	t.Helper()
	failures := make([]string, len(points))
	for i, point := range points {
		plan := &crashAtCall{n: i + 1}
		got, err := runGoldenRecovered(t, plan)
		switch {
		case plan.label != point:
			t.Fatalf("call %d crashed at %q, golden line %d is %q: the run is no longer the golden's", i+1, plan.label, i+1, point)
		case err != nil:
			failures[i] = err.Error()
		default:
			failures[i] = want.diff(got)
		}
	}
	return failures
}

func TestCrashPointsMatchTheCrashFreeRun(t *testing.T) {
	start := time.Now()
	want, err := runGoldenRecovered(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := goldenCrashPoints(t)
	for i, f := range enumerateCrashPoints(t, want, points) {
		if f != "" {
			t.Errorf("crash at %s (line %d): %s", points[i], i+1, f)
		}
	}
	t.Logf("%d crash points in %v", len(points), time.Since(start))
}

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
			for i, f := range enumerateCrashPoints(t, want, points) {
				if f != "" {
					if failed == 0 {
						first = fmt.Sprintf("%s: %s", points[i], f)
					}
					failed++
				}
			}
			if failed == 0 {
				t.Fatalf("no crash point fails with the mutation on")
			}
			t.Logf("fails on %d of %d points; first: %s", failed, len(points), first)
		})
	}
}
