package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/dynamo"
	"repro/internal/platform"
)

var (
	simSeed = flag.Int64("sim.seed", -1, "replay this scenario seed (see a failing sweep's reproduce line)")
	simDeep = flag.Int("sim.deep", 0, "deep-sweep seed budget (nightly CI); 0 skips the deep sweep")
	update  = flag.Bool("update", false, "rewrite testdata/tracehashes.golden from this build")
)

// TestSimSweepBounded is the tier-1 sweep: one contiguous seed block
// covering every fault kind and every workload at least once, each run once
// on the WAL. Every seed must pass — a failure here is a protocol bug with a
// printed reproduction line — and every run's trace hash must match
// testdata/tracehashes.golden. A hash that moves means the run took another
// schedule; regenerate (go test ./internal/sim -run TestSimSweepBounded
// -update) only for a change meant to move it, and the file's diff names
// the seeds it re-derived.
func TestSimSweepBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep skipped in -short")
	}
	seeds := make([]int64, 0, 33)
	for seed := int64(0); seed < 33; seed++ {
		seeds = append(seeds, seed)
	}
	rep := Sweep(SweepOptions{Seeds: seeds, Logf: t.Logf})
	if len(rep.Failures) != 0 {
		t.Fatalf("%d/%d seeds failed; reproduction lines above", len(rep.Failures), len(rep.Results))
	}
	var lines []string
	for _, r := range rep.Results {
		sc := r.Scenario
		lines = append(lines, fmt.Sprintf("%d %s %s %s %d %016x",
			sc.Seed, sc.Kind, sc.Workload, sc.Policy, r.Steps, r.TraceHash))
	}
	checkGolden(t, filepath.Join("testdata", "tracehashes.golden"), lines)
}

// checkGolden compares lines with the file at path, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestSimDeepSweep is the nightly sweep: a larger seed budget under
// -sim.deep=N (see .github/workflows/ci.yml). Skipped when the flag is
// unset, so tier-1 stays bounded.
func TestSimDeepSweep(t *testing.T) {
	if *simDeep <= 0 {
		t.Skip("deep sweep runs with -sim.deep=N (nightly CI)")
	}
	seeds := make([]int64, 0, *simDeep)
	for seed := int64(0); seed < int64(*simDeep); seed++ {
		seeds = append(seeds, seed)
	}
	rep := Sweep(SweepOptions{Seeds: seeds, Logf: t.Logf})
	if len(rep.Failures) != 0 {
		t.Fatalf("%d/%d seeds failed; reproduction lines above", len(rep.Failures), len(rep.Results))
	}
}

// TestSimReplaySeed is the reproduction entry point a failing sweep prints:
//
//	go test ./internal/sim -run 'TestSimReplaySeed' -sim.seed=N
//
// It replays the seed's scenario twice and reports the failure along with
// both trace hashes, which must be identical — the whole point of
// replay-from-seed.
func TestSimReplaySeed(t *testing.T) {
	seed := *simSeed
	if seed < 0 {
		seed = 3 // cheap default so the entry point is exercised in tier-1
	}
	first, err1 := RunSeed(seed)
	second, err2 := RunSeed(seed)
	t.Logf("seed %d (%s/%s/%s): trace %016x / %016x, %d steps",
		seed, first.Scenario.Kind, first.Scenario.Workload, first.Scenario.Policy,
		first.TraceHash, second.TraceHash, first.Steps)
	if first.TraceHash != second.TraceHash {
		t.Errorf("replay diverged: trace %016x then %016x", first.TraceHash, second.TraceHash)
	}
	if (err1 == nil) != (err2 == nil) {
		t.Errorf("replay outcome diverged: %v then %v", err1, err2)
	}
	if err1 != nil {
		t.Errorf("seed %d failed: %v", seed, err1)
	}
}

// TestSimReplayIsDeterministic re-runs one seed of every kind and asserts
// bit-identical trace hashes — the property every reproduction line relies
// on.
func TestSimReplayIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation replays skipped in -short")
	}
	for seed := int64(0); seed < int64(len(Kinds())); seed++ {
		sc := ScenarioFor(seed)
		a, errA := RunSeed(seed)
		b, errB := RunSeed(seed)
		if a.TraceHash != b.TraceHash {
			t.Errorf("seed %d (%s/%s): trace %016x then %016x — not deterministic",
				seed, sc.Kind, sc.Workload, a.TraceHash, b.TraceHash)
		}
		if (errA == nil) != (errB == nil) {
			t.Errorf("seed %d (%s/%s): outcome diverged: %v then %v", seed, sc.Kind, sc.Workload, errA, errB)
		}
	}
}

// TestSimRunOwnsItsDirectory pins RunSeed's storage contract: a run keeps
// its WAL in a directory of its own under os.TempDir and removes it before
// returning, on a one-generation cluster seed and on a two-generation
// restart seed alike, so a sweep of any length leaves nothing behind.
func TestSimRunOwnsItsDirectory(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, seed := range []int64{25, 8} { // kill/fanout, torn/counter
		sc := ScenarioFor(seed)
		if _, err := RunSeed(seed); err != nil {
			t.Fatalf("seed %d (%s/%s) failed: %v\nreproduce: %s", seed, sc.Kind, sc.Workload, err, ReproLine(seed))
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("a run left %s behind in its temporary directory", e.Name())
	}
}

// TestSimSpecCrashRecovery pins both restart scenarios. The spec kind: a
// single worker running the counter workload through the commit-pipelining
// overlay is killed with clients in flight, the overlay drops everything
// above the durability watermark, and a fresh generation recovering from
// the bare WAL must show counter == markers with every fenced (acked)
// increment intact. The torn kind: two workers run the same workload until
// a torn append poisons the WAL, and the fresh generation must show the
// same. The pinned seeds must keep deriving their kind, pass, and replay
// bit-identically — the regression guard for the overlay's and the WAL's
// crash-consistency arguments.
func TestSimSpecCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation scenario skipped in -short")
	}
	// Seeds across the random and lifo policies (kind index 8 for torn, 9
	// for spec, stride len(Kinds)).
	for _, row := range []struct {
		kind string
		seed int64
	}{{"spec", 9}, {"spec", 20}, {"spec", 42}, {"torn", 8}, {"torn", 19}, {"torn", 41}} {
		seed := row.seed
		sc := ScenarioFor(seed)
		if sc.Kind != row.kind || sc.Workload != "counter" {
			t.Fatalf("seed %d derives %s/%s, this test needs %s/counter — re-pin the seed", seed, sc.Kind, sc.Workload, row.kind)
		}
		a, errA := RunSeed(seed)
		if errA != nil {
			t.Errorf("seed %d (policy=%s) failed: %v\nreproduce: %s", seed, sc.Policy, errA, ReproLine(seed))
			continue
		}
		b, errB := RunSeed(seed)
		if errB != nil || a.TraceHash != b.TraceHash {
			t.Errorf("seed %d replay diverged: trace %016x then %016x (err %v)", seed, a.TraceHash, b.TraceHash, errB)
		}
	}
}

// TestSimWakeFaultsPreserveLiveness pins the wake kind: commit-stream push
// is armed across the cluster while the notification fabric drops, delays
// and duplicates wakeups. Subscribing consumers (promise awaits above all)
// must stay live through their poll-cadence fallback, every exactly-once
// audit must hold unchanged — a wakeup is a hint, never the data — and the
// pinned seeds must replay bit-identically, fault dice included. One seed
// per workload (kind index 10 of Kinds, stride len(Kinds)); the fanout seed
// is the load-bearing one, since async promises are the heaviest
// subscription consumers.
func TestSimWakeFaultsPreserveLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation scenario skipped in -short")
	}
	for _, seed := range []int64{10, 21, 32} {
		sc := ScenarioFor(seed)
		if sc.Kind != "wake" {
			t.Fatalf("seed %d derives %s/%s, this test needs the wake kind — re-pin the seed", seed, sc.Kind, sc.Workload)
		}
		a, errA := RunSeed(seed)
		if errA != nil {
			t.Errorf("seed %d (%s/%s) failed: %v\nreproduce: %s", seed, sc.Kind, sc.Workload, errA, ReproLine(seed))
			continue
		}
		b, errB := RunSeed(seed)
		if errB != nil || a.TraceHash != b.TraceHash {
			t.Errorf("seed %d replay diverged: trace %016x then %016x (err %v)", seed, a.TraceHash, b.TraceHash, errB)
		}
	}
}

// TestSimPauseSupersedesMidBatch pins the duplicate-execution seam of the
// group-committed read log: the pause kind on the travel workload stalls a
// worker while a 100-read audit instance — the eager relaunch of a callee
// whose first launch was killed, so it owns an intent row and a log — sits
// mid-batch with unflushed reads, a peer's over-eager collector restarts the
// intent, and the stalled original — resumed — must lose its flush and stop
// with ErrInstanceSuperseded before any effect. The pinned seeds must keep
// deriving pause/travel with a stalled relaunch, pass every audit
// (exactly-once bookings, the tally the client was answered equals the one
// recorded), actually supersede an execution, and replay bit-identically. One
// seed per policy (kind index 5, workload travel: stride 33).
func TestSimPauseSupersedesMidBatch(t *testing.T) {
	pinnedPauseSeeds(t, "relaunch", []int64{5, 170, 467, 368}, func(r Result) string {
		if r.Superseded == 0 {
			return "no execution was superseded; the stall missed the batch"
		}
		return ""
	})
}

// TestSimPausedFirstLaunchLosesToRelaunch pins the seam a deferred intent row
// creates: the same stall lands on the audit's FIRST launch, which has
// written nothing — no intent row, no log. A peer's collector restarts the
// caller, whose replay closes its invoke-log row to effect-free results and
// relaunches the callee eagerly; the relaunch creates the row, reads, logs
// and delivers. The stalled original — resumed — finishes effect-free and
// must lose: its callback is refused and it adopts the result the row holds
// (or, had the relaunch not delivered yet, stops superseded), so the tally
// the client was answered still equals the one recorded. Reaching the seam
// shows as a second result offered to the request's one invoke-log row.
func TestSimPausedFirstLaunchLosesToRelaunch(t *testing.T) {
	pinnedPauseSeeds(t, "first", []int64{269, 38, 203, 104}, func(r Result) string {
		if r.ReadHeavyResults < 2 {
			return "only one execution of the audit delivered; no relaunch ran beside the stalled first launch"
		}
		return ""
	})
}

// pinnedPauseSeeds runs each seed twice: it must derive pause/travel with the
// given launch stalled, pass every audit, reach its seam (missed returns why
// not, or "") and replay bit-identically.
func pinnedPauseSeeds(t *testing.T, launch string, seeds []int64, missed func(Result) string) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation scenario skipped in -short")
	}
	for _, seed := range seeds {
		sc := ScenarioFor(seed)
		if sc.Kind != "pause" || sc.Workload != "travel" {
			t.Fatalf("seed %d derives %s/%s, this test needs pause/travel — re-pin the seed", seed, sc.Kind, sc.Workload)
		}
		a, errA := RunSeed(seed)
		if errA != nil {
			t.Errorf("seed %d (policy=%s) failed: %v\nreproduce: %s", seed, sc.Policy, errA, ReproLine(seed))
			continue
		}
		if a.ReadHeavy != launch {
			t.Errorf("seed %d (policy=%s) stalls a %q launch, this test needs %q — re-pin the seed", seed, sc.Policy, a.ReadHeavy, launch)
		} else if why := missed(a); why != "" {
			t.Errorf("seed %d (policy=%s): %s — re-pin the seed", seed, sc.Policy, why)
		}
		b, errB := RunSeed(seed)
		if errB != nil || a.TraceHash != b.TraceHash || a.Superseded != b.Superseded || a.ReadHeavyResults != b.ReadHeavyResults {
			t.Errorf("seed %d replay diverged: trace %016x then %016x, superseded %d then %d, results %d then %d (err %v)",
				seed, a.TraceHash, b.TraceHash, a.Superseded, b.Superseded, a.ReadHeavyResults, b.ReadHeavyResults, errB)
		}
	}
}

// TestSimCatchesUnguardedIntentDone is the sweep's proof of value: it
// reintroduces a historical protocol bug — markIntentDone without the
// existence guard, so a straggler's late completion resurrects its GC'd
// intent as a half-formed zombie row — and asserts that the late-completion
// fault schedule catches it within the CI seed budget, and that the caught
// seed replays the identical failing schedule.
func TestSimCatchesUnguardedIntentDone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep skipped in -short")
	}
	core.FaultUnguardedIntentDone.Store(true)
	defer core.FaultUnguardedIntentDone.Store(false)

	// Seeds deriving the latedone kind (index 7 of Kinds), across
	// workloads and policies.
	var seeds []int64
	for seed := int64(7); len(seeds) < 8; seed += int64(len(Kinds())) {
		seeds = append(seeds, seed)
	}
	var caught *SeedResult
	rep := Sweep(SweepOptions{Seeds: seeds, Logf: t.Logf})
	for i := range rep.Failures {
		caught = &rep.Failures[i]
		break
	}
	if caught == nil {
		t.Fatalf("the sweep missed the reintroduced zombie-upsert bug across %d latedone seeds", len(seeds))
	}
	t.Logf("caught at seed %d (trace %016x): %v", caught.Scenario.Seed, caught.TraceHash, caught.Err)

	// The printed seed must replay the identical failing schedule.
	r1, err1 := RunSeed(caught.Scenario.Seed)
	r2, err2 := RunSeed(caught.Scenario.Seed)
	if err1 == nil || err2 == nil {
		t.Fatalf("caught seed %d did not fail on replay: %v / %v", caught.Scenario.Seed, err1, err2)
	}
	if r1.TraceHash != caught.TraceHash || r2.TraceHash != caught.TraceHash {
		t.Errorf("caught seed %d replays with trace %016x / %016x, sweep saw %016x — not the same schedule",
			caught.Scenario.Seed, r1.TraceHash, r2.TraceHash, caught.TraceHash)
	}
	if err1.Error() != err2.Error() {
		t.Errorf("caught seed %d replays with different failures:\n  %v\n  %v", caught.Scenario.Seed, err1, err2)
	}
}

// TestSimEverythingAtOnce is the deterministic successor of core's
// TestIntegrationEverythingAtOnce chaos shape: contended locked
// read-modify-writes through a cross-SSF call chain while random crash
// points fire, under the simulator instead of wall-clock goroutines — no
// retry loops, no sleep margins, and a seed that replays any failure.
func TestSimEverythingAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short")
	}
	const seed = 1009
	const keys, requests = 3, 24
	s := New(Options{Seed: seed})
	store := dynamo.NewStore()
	prng := rand.New(rand.NewSource(seed))
	type req struct {
		key string
		amt int64
	}
	reqs := make([]req, requests)
	for i := range reqs {
		reqs[i] = req{key: fmt.Sprintf("k%d", prng.Intn(keys)), amt: int64(1 + prng.Intn(9))}
	}
	register := func(d *beldi.Deployment) {
		d.Function("ledger", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			key := in.Map()["key"].Str()
			if err := e.Lock("acct", key); err != nil {
				return beldi.Null, err
			}
			v, err := e.Read("acct", key)
			if err != nil {
				return beldi.Null, err
			}
			if err := e.Write("acct", key, beldi.Int(v.Int()+in.Map()["amt"].Int())); err != nil {
				return beldi.Null, err
			}
			if err := e.Unlock("acct", key); err != nil {
				return beldi.Null, err
			}
			// The marker makes the request auditable: increment and marker
			// land atomically-exactly-once or not at all.
			if err := e.Write("acct", "mark."+in.Map()["id"].Str(), in); err != nil {
				return beldi.Null, err
			}
			return beldi.Str("ok"), nil
		}, "acct")
		d.Function("front", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			if _, err := e.SyncInvoke("ledger", in); err != nil {
				return beldi.Null, err
			}
			return beldi.Str("ack"), nil
		})
	}
	c, err := NewCluster(s, store, ClusterConfig{
		Workers:  3,
		Config:   simConfig(),
		Register: register,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range c.Workers {
		w.CW.Platform().SetFaults(&platform.CrashProb{P: 0.02, Seed: seed*7 + int64(i)})
	}
	var driveErr error
	root := s.Go(TaskOpts{Name: "driver"}, func() {
		driveErr = func() error {
			c.StartPumps()
			clients := make([]*Task, requests)
			for i := 0; i < requests; i++ {
				w, i := c.Workers[i%len(c.Workers)], i
				clients[i] = s.Go(TaskOpts{Name: fmt.Sprintf("client%d", i)}, func() {
					// Client errors are fine: a crashed instance's intent is
					// the collector's to finish, and the audit below counts
					// whatever landed.
					w.CW.Invoke("front", beldi.Map(map[string]beldi.Value{ //nolint:errcheck
						"key": beldi.Str(reqs[i].key),
						"amt": beldi.Int(reqs[i].amt),
						"id":  beldi.Str(fmt.Sprintf("int-%03d", i)),
					}))
				})
				s.Sleep(2 * time.Millisecond)
			}
			s.Await(clients...)
			if err := c.Quiesce([]string{"front", "ledger"}, 30*time.Second); err != nil {
				return err
			}
			rt := c.Live(0).CW.Deployment().Runtime("ledger")
			expected := make(map[string]int64, keys)
			landed := 0
			for i, r := range reqs {
				m, err := beldi.PeekState(rt, "acct", fmt.Sprintf("mark.int-%03d", i))
				if err != nil {
					return err
				}
				if !m.IsNull() {
					expected[r.key] += r.amt
					landed++
				}
			}
			if landed < requests/2 {
				return fmt.Errorf("only %d/%d requests landed; the load barely ran", landed, requests)
			}
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("k%d", k)
				got, err := beldi.PeekState(rt, "acct", key)
				if err != nil {
					return err
				}
				if got.Int() != expected[key] {
					return fmt.Errorf("%s = %d, want %d (per-marker sum): increments not exactly-once",
						key, got.Int(), expected[key])
				}
			}
			return c.SettleAndCheck(12)
		}()
	})
	runErr := s.Run(root)
	s.Shutdown()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if driveErr != nil {
		t.Fatal(driveErr)
	}
}
