package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/beldi"
	"repro/internal/apps/fanout"
	"repro/internal/apps/travel"
)

// A workload is a fixed, seeded list of workflow requests run by one
// closed-loop client (a workflow caller waits for its reply, so closed loop
// is the honest model) against a fresh deployment per episode. Concurrency
// inside the system comes from the fan-out workload, not from more clients:
// on a 2-core box a second client measures the scheduler.
type workload struct {
	name string
	why  string
	// n is workflows per episode; smokeN the size of a -smoke episode.
	n, smokeN int
	spec      stackSpec
	// singlePath marks the workloads with no concurrency inside the system:
	// their counts repeat exactly from run to run and with tracing on.
	singlePath bool
	// recoveryProbe runs the program's crash-recovery probe in the untimed
	// tail of the last episode.
	recoveryProbe bool
	// prepare generates the run's inputs from the seed and returns the
	// function that registers the program on a fresh stack and seeds its
	// data. The program receives only generated inputs.
	prepare func(seed int64, n int) func(*stack) (*program, error)
}

// program is one episode's registered workflow.
type program struct {
	// invoke runs request i and checks its reply.
	invoke func(i int) error
	// gate checks the episode's outputs at quiescence.
	gate func() error
	// recovery, when set, is the crash-recovery probe: it kills instances
	// of further workflows at step boundaries, lets the intent collectors
	// re-execute them, and checks the outputs again.
	recovery func() (recoveryResult, error)
}

// recoveryResult is what the recovery probe measured.
type recoveryResult struct {
	crashed  int           // workflows that failed at the client because an instance was killed
	healed   int           // workflows whose killed callee was re-invoked in place by its caller
	restarts int           // instances the intent collectors re-launched
	busy     time.Duration // time the collectors and re-executions took
	replays  int64         // steps resolved from the logs instead of executing
}

// The server delay injected on chain-spec-rtt, so that round trips dominate
// its latency the way they do against a storage service.
const chainDelay = time.Millisecond

var workloads = []workload{
	{
		name: "travel-mem",
		why: "platform+core+dynamo do all the work and remote/walstore/pipeline/queue none: " +
			"a wire or WAL optimisation must show no change here",
		n: 5000, smokeN: 50, singlePath: true, recoveryProbe: true,
		spec:    stackSpec{sub: subMemory},
		prepare: prepareTravel,
	},
	{
		name: "travel-remote-wal",
		why: "same requests through remote client, loopback, server and walstore: codec, framing, syscalls and " +
			"WAL append dominate, so the gap to travel-mem is the storage-plane cost",
		n: 800, smokeN: 50, singlePath: true,
		spec:    stackSpec{sub: subRemoteWAL},
		prepare: prepareTravel,
	},
	{
		name: "chain-spec-rtt",
		why: "write-only, 8 logged writes per workflow under speculation with 1 ms injected server delay: " +
			"latency is flushes x RTT, so the pipeline overlay does the work; RPC folding predicts no change",
		n: 1500, smokeN: 50, singlePath: true,
		spec:    stackSpec{sub: subRemoteWAL, delay: chainDelay, speculation: &beldi.SpeculationOptions{}},
		prepare: prepareChain,
	},
	{
		name: "fanout-queue-wal",
		why: "typed fan-out of 8 mappers per job over durable queues, promises and watch wake-ups on an in-process WAL: " +
			"the only concurrency inside the system, the only group-commit batching and reflection codec",
		n: 800, smokeN: 50,
		spec:    stackSpec{sub: subWAL},
		prepare: prepareFanout,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- travel -----------------------------------------------------------------

// travelMix is the DeathStarBench-derived request mix of the travel app,
// per block of 100 requests.
var travelMix = map[string]int{"search": 60, "recommend": 18, "login": 15, "reserve": 7}

// travelRequests draws n requests from the app's own generator, stratified
// so that every block of 100 holds exactly the mix: a draw whose operation
// is already full in the current block is discarded. The arguments keep the
// generator's distributions; only the operation shares stop depending on
// the seed, so per-workflow counts compare across seeds, and a prefix of the
// list (travel-remote-wal runs the first 800) has the same mix as the whole.
func travelRequests(seed int64, n int) []beldi.Value {
	r := rand.New(rand.NewSource(seed))
	gen := new(travel.App)
	reqs := make([]beldi.Value, 0, n)
	for len(reqs) < n {
		left := make(map[string]int, len(travelMix))
		for op, share := range travelMix {
			left[op] = share
		}
		for filled := 0; filled < 100 && len(reqs) < n; {
			req := gen.Request(r)
			op := req.Map()["op"].Str()
			if left[op] == 0 {
				continue
			}
			left[op]--
			filled++
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// The recovery probe runs up to recoveryExtra further requests, killing
// instances until a tenth of n workflows (at most 50) have failed at the
// client.
const recoveryExtra = 600

func prepareTravel(seed int64, n int) func(*stack) (*program, error) {
	reqs := travelRequests(seed, n+recoveryExtra)
	kills := max(1, min(50, n/10))
	return func(s *stack) (*program, error) {
		app := travel.Build(s.d)
		if err := app.Seed(); err != nil {
			return nil, err
		}
		var booked int64
		// run sends request i and checks its reply. While the recovery probe
		// has killed transactions holding locks, a reservation may lose
		// wait-die to one of them and abort: probing accepts that reply.
		run := func(i int, probing bool) error {
			out, err := s.d.Invoke(app.Entry(), reqs[i])
			if err != nil {
				return err
			}
			switch op := reqs[i].Map()["op"].Str(); op {
			case "search":
				if len(out.List()) == 0 {
					return fmt.Errorf("search returned no hotels")
				}
			case "recommend":
				if len(out.List()) != 5 {
					return fmt.Errorf("recommend returned %d hotels, want 5", len(out.List()))
				}
			case "login":
				if !out.BoolVal() {
					return fmt.Errorf("login refused")
				}
			case "reserve":
				switch {
				case out.Str() == "booked":
					booked++
				case !probing || out.Str() != "aborted":
					return fmt.Errorf("reserve returned %q", out.Str())
				}
			}
			return nil
		}
		invoke := func(i int) error { return run(i, false) }
		gate := func() error { return travelGate(s.d, app, booked, booked) }
		recovery := func() (recoveryResult, error) {
			r := rand.New(rand.NewSource(seed))
			plan := &killPlan{}
			s.plat.SetFaults(plan)
			defer s.plat.SetFaults(nil)
			replays := sample(s)["core.replays"]
			var res recoveryResult
			var killedReserves int64 // each books at most once, whoever finishes it
			for i := n; i < len(reqs) && res.crashed < kills; i++ {
				plan.arm(1 + r.Intn(12))
				err := run(i, true)
				switch {
				case !plan.didFire():
					if err != nil {
						return res, err
					}
				case err == nil:
					// A killed callee is re-invoked in place by its caller:
					// the client never noticed.
					res.healed++
				default:
					// The entry instance died: the client saw the failure
					// and the workflow is left to the intent collectors.
					res.crashed++
					if reqs[i].Map()["op"].Str() == "reserve" {
						killedReserves++
					}
				}
			}
			plan.arm(0)
			var err error
			if res.restarts, res.busy, err = recoverAll(s); err != nil {
				return res, err
			}
			res.replays = sample(s)["core.replays"] - replays
			return res, travelGate(s.d, app, booked, booked+killedReserves)
		}
		return &program{invoke: invoke, gate: gate, recovery: recovery}, nil
	}
}

// travelGate checks conservation — the bookings took exactly as many rooms
// as seats, between lo and hi of each — and audits every function's
// durable state.
func travelGate(d *beldi.Deployment, app *travel.App, lo, hi int64) error {
	var taken [2]int64
	for i, fn := range []string{travel.FnReserveHotel, travel.FnReserveFlight} {
		left, err := travel.AuditInventory(d, fn)
		if err != nil {
			return err
		}
		taken[i] = travel.NumHotels*app.Capacity - left
	}
	if taken[0] != taken[1] || taken[0] < lo || taken[0] > hi {
		return fmt.Errorf("%d rooms and %d seats taken for %d to %d bookings", taken[0], taken[1], lo, hi)
	}
	return d.FsckAll()
}

// --- chain ------------------------------------------------------------------

const (
	chainFn     = "chain"
	chainKeys   = 2048
	chainWrites = 8
)

func chainKey(k int) string { return fmt.Sprintf("k%04d", k) }

func prepareChain(seed int64, n int) func(*stack) (*program, error) {
	r := rand.New(rand.NewSource(seed))
	reqs := make([]beldi.Value, n)
	last := make(map[string]int64) // the value each key must end with
	for i := range reqs {
		writes := make([]beldi.Value, chainWrites)
		for j, k := range r.Perm(chainKeys)[:chainWrites] {
			key, val := chainKey(k), int64(i*chainWrites+j)
			last[key] = val
			writes[j] = beldi.Map(map[string]beldi.Value{"k": beldi.Str(key), "v": beldi.Int(val)})
		}
		reqs[i] = beldi.List(writes...)
	}
	return func(s *stack) (*program, error) {
		rt := s.d.Function(chainFn, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			for _, w := range in.List() {
				m := w.Map()
				if err := e.Write("state", m["k"].Str(), m["v"]); err != nil {
					return beldi.Null, err
				}
			}
			return beldi.Int(int64(len(in.List()))), nil
		}, "state")
		invoke := func(i int) error {
			out, err := s.d.Invoke(chainFn, reqs[i])
			if err != nil {
				return err
			}
			if out.Int() != chainWrites {
				return fmt.Errorf("chain wrote %d keys, want %d", out.Int(), chainWrites)
			}
			return nil
		}
		gate := func() error {
			// Exactly-once: each write executed once, and every key holds
			// the last value written to it.
			if got, want := rt.Stats().Writes.Load(), int64(n*chainWrites); got != want {
				return fmt.Errorf("chain executed %d writes, want %d", got, want)
			}
			for key, want := range last {
				v, err := beldi.PeekState(rt, "state", key)
				if err != nil {
					return err
				}
				if v.Int() != want {
					return fmt.Errorf("chain key %s holds %d, want %d", key, v.Int(), want)
				}
			}
			return s.d.FsckAll()
		}
		return &program{invoke: invoke, gate: gate}, nil
	}
}

// --- fanout -----------------------------------------------------------------

const (
	fanoutDocs  = 8
	fanoutWords = 24
	fanoutVocab = 64
)

func vocabWord(i int) string { return fmt.Sprintf("w%02d", i) }

func prepareFanout(seed int64, n int) func(*stack) (*program, error) {
	r := rand.New(rand.NewSource(seed))
	jobs := make([]fanout.Job, n)
	distinct := make([]int64, n)    // reference: distinct words per job
	var lastCounts map[string]int64 // reference: merged counts of the last job
	for i := range jobs {
		counts := make(map[string]int64)
		docs := make([]fanout.Doc, fanoutDocs)
		for d := range docs {
			text := ""
			for w := 0; w < fanoutWords; w++ {
				word := vocabWord(r.Intn(fanoutVocab))
				counts[word]++
				text += word + " "
			}
			docs[d] = fanout.Doc{ID: fmt.Sprintf("j%04d-d%d", i, d), Text: text}
		}
		jobs[i] = fanout.Job{Docs: docs}
		distinct[i] = int64(len(counts))
		lastCounts = counts
	}
	return func(s *stack) (*program, error) {
		app := fanout.Build(s.d)
		s.da = s.d.EnableDurableAsync(beldi.DurableAsyncOptions{})
		s.da.Start()
		invoke := func(i int) error {
			sum, err := app.Reduce.Invoke(jobs[i])
			if err != nil {
				return err
			}
			want := fanout.Summary{Docs: fanoutDocs, Words: fanoutDocs * fanoutWords, Distinct: distinct[i]}
			if sum != want {
				return fmt.Errorf("job %d summary %+v, want %+v", i, sum, want)
			}
			return nil
		}
		gate := func() error {
			got, err := fanout.Totals(s.d)
			if err != nil {
				return err
			}
			if len(got) != len(lastCounts) {
				return fmt.Errorf("totals hold %d words, want %d", len(got), len(lastCounts))
			}
			for w, c := range lastCounts {
				if got[w] != c {
					return fmt.Errorf("totals[%s] = %d, want %d", w, got[w], c)
				}
			}
			return s.d.FsckAll()
		}
		return &program{invoke: invoke, gate: gate}, nil
	}
}
