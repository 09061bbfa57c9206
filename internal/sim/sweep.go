package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/beldi"
	"repro/internal/apps/fanout"
	"repro/internal/apps/orders"
	"repro/internal/apps/travel"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/walstore"
)

// Protocol parameters every scenario runs under. The TTL is twice the
// synchrony bound T and pump cadences derive from it (tick = TTL/4, GC
// every TTL), so the GC horizon trails real completion closely — which is
// what gives the late-completion fault a wide window to land on a recycled
// intent.
const (
	simLeaseTTL   = 60 * time.Millisecond
	simT          = 30 * time.Millisecond
	simPartitions = 8
)

// Kinds lists the fault-schedule kinds a seed can select, in derivation
// order: no fault at all, storage-op delays (seeded reordering), random
// crash points, a worker kill mid-load, a network partition that heals, a
// stop-the-world pause, lease clock skew, late intent completions past the
// GC horizon, a torn WAL write with restart recovery, a worker killed
// between speculative execution and batch durability under the
// commit-pipelining overlay, and commit-stream wakeups armed but perturbed
// (seeded drops, delays and duplicates of push notifications).
func Kinds() []string {
	return []string{"clean", "delay", "crash", "kill", "partition", "pause", "skew", "latedone", "torn", "spec", "wake"}
}

// WorkloadNames lists the application workloads a seed can select: the
// travel reservation app (cross-SSF transactions), the event-driven order
// pipeline (asynchronous invocations), and the fan-out word count (async
// promises).
// The torn and spec kinds override the selection with a counter workload,
// whose audit is meaningful across a restart.
func WorkloadNames() []string { return []string{"travel", "orders", "fanout"} }

// Scenario is the seed-derived shape of one simulation run.
type Scenario struct {
	// Seed drives the scheduler, the fault schedule and the load.
	Seed int64
	// Kind names the fault schedule; see Kinds.
	Kind string
	// Workload names the application; see WorkloadNames.
	Workload string
	// Policy names the interleaving policy; see Policies.
	Policy string
}

// ScenarioFor derives the scenario a seed selects: the kind cycles
// fastest, then the workload, then the policy, so a contiguous seed range
// covers the whole matrix.
func ScenarioFor(seed int64) Scenario {
	if seed < 0 {
		seed = -seed
	}
	kinds, wls, pols := Kinds(), WorkloadNames(), Policies()
	sc := Scenario{
		Seed:     seed,
		Kind:     kinds[seed%int64(len(kinds))],
		Workload: wls[(seed/int64(len(kinds)))%int64(len(wls))],
		Policy:   pols[(seed/int64(len(kinds)*len(wls)))%int64(len(pols))],
	}
	if isRestart(sc.Kind) {
		sc.Workload = "counter"
	}
	return sc
}

// Result describes a completed (or failed) run.
type Result struct {
	// Scenario is the seed-derived shape the run executed.
	Scenario Scenario
	// TraceHash digests every scheduling decision and storage operation;
	// equal seeds must produce equal hashes.
	TraceHash uint64
	// Steps is the number of scheduling decisions the run took.
	Steps int
	// Superseded counts executions that stopped with
	// core.ErrInstanceSuperseded: live duplicates of an intent whose read-log
	// flush lost to the other execution's, and first launches whose deferred
	// intent or effect-free result lost to a relaunch.
	Superseded int64
	// ReadHeavy names the launch the pause kind stalled mid-batch on the
	// travel workload: "first" (a first launch, its intent row still deferred)
	// or "relaunch" (an eager relaunch that owns a row); "" elsewhere.
	ReadHeavy string
	// ReadHeavyResults counts the callbacks that reached the read-heavy
	// request's one invoke-log row: above 1, more than one execution of its
	// callee delivered a result, and the row's first-wins rule chose.
	ReadHeavyResults int64
	// Torn is the number of bytes the torn and spec kinds' seeded torn
	// append left on disk: 0 when it did not fire, or the kind tears nothing.
	Torn int
}

// ReproLine returns the command that replays a failing seed.
func ReproLine(seed int64) string {
	return fmt.Sprintf("go test ./internal/sim -run 'TestSimReplaySeed' -sim.seed=%d", seed)
}

// RunSeed executes the scenario seed selects, end to end, over a WAL store
// in a directory it creates under os.TempDir and removes before it returns:
// build the cluster, drive the workload while the fault schedule fires,
// quiesce, audit exactly-once totals and transactional invariants, then
// advance time through several GC generations with a full Fsck after each
// step, and finally walstore.Fsck the directory. A nil error means every
// audit passed; the Result's trace hash is returned either way so replays
// can be compared.
func RunSeed(seed int64) (res Result, err error) {
	sc := ScenarioFor(seed)
	res = Result{Scenario: sc}
	dir, err := os.MkdirTemp("", "sim-wal-")
	if err != nil {
		return res, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = fmt.Errorf("sim: removing the WAL directory: %w", rerr)
		}
	}()

	s := New(Options{Seed: seed, Policy: sc.Policy})
	// Load parameters draw from their own stream so scenario shape never
	// perturbs scheduling decisions.
	prng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))

	if isRestart(sc.Kind) {
		err = runRestart(s, sc, prng, dir, &res)
	} else {
		// SyncNone: the simulation models no page-cache loss (a torn append
		// is a failed write, not a lost fsync), and real fsyncs would
		// dominate sweep wall time.
		var ws *walstore.Store
		if ws, err = walstore.Open(dir, walstore.Options{Sync: walstore.SyncNone}); err != nil {
			return res, err
		}
		err = runScenario(s, sc, prng, ws, &res)
		if cerr := ws.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sim: closing walstore: %w", cerr)
		}
		if ferr := walstore.Fsck(dir); ferr != nil && err == nil {
			err = fmt.Errorf("sim: walstore fsck: %w", ferr)
		}
	}
	res.TraceHash = s.TraceHash()
	res.Steps = s.Steps()
	return res, err
}

// simConfig is the protocol configuration every scenario shares.
func simConfig() beldi.Config {
	return beldi.Config{
		RowCap: 4,
		T:      simT,
		// Generous retry budgets: adversarial policies (starve) legally
		// stretch lock waits and promise awaits far past the defaults, and
		// a retry exhaustion there would read as a protocol bug.
		LockRetryMax:  2000,
		AwaitRetryMax: 20000,
	}
}

// runScenario drives every kind except torn and spec: one cluster
// generation, fault at mid-load where the kind calls for one, quiesce,
// audit, settle.
func runScenario(s *Scheduler, sc Scenario, prng *rand.Rand, store storage.Backend, res *Result) error {
	wl := newWorkload(sc, prng)
	// No durable-async launch budget: adversarial schedules legally starve a
	// callee past any budget, and a dead intent would fail the exactly-once
	// audit without any protocol bug.
	cfg := ClusterConfig{Workers: 3, Config: simConfig(), Register: wl.register}
	switch sc.Kind {
	case "delay":
		cfg.Faults = &StoreFaults{DelayProb: 0.25, MaxDelay: simT / 4}
	case "wake":
		// Push armed, notification fabric hostile: wakeups drop (the
		// subscriber's poll-cadence timeout is the liveness floor), arrive
		// late (in-flight packets), or arrive twice (hints re-read, never
		// re-execute). Audits are unchanged: perturbed wakeups may cost
		// latency only.
		cfg.Faults = &StoreFaults{Wake: &WakeFaults{
			DropProb: 0.25, DupProb: 0.15, DelayProb: 0.25, MaxDelay: simT / 4,
		}}
	case "latedone":
		cfg.Faults = &StoreFaults{LateDone: &LateDone{MinDelay: simT, MaxDelay: 8 * simT}}
	case "skew":
		skews := []time.Duration{-simLeaseTTL / 8, 0, simLeaseTTL / 8}
		cfg.Skew = func(i int) time.Duration { return skews[i%len(skews)] }
	case "pause":
		if wl.readHeavy != nil {
			// An over-eager collector: peers restart the stalled worker's
			// in-flight instances well inside the stall (which itself stays
			// under T), so a live duplicate runs while the original sits
			// mid-batch with unflushed reads — the seam the read log's group
			// commit creates, and the one a deferred intent row creates. One
			// collector pass lands inside the stall, a few ms after the
			// read-heavy request was launched: the bound must be below that.
			cfg.Config.ICMinAge = simT / 16
		}
	}
	c, err := NewCluster(s, store, cfg)
	if err != nil {
		return err
	}
	if err := wl.seed(c); err != nil {
		return fmt.Errorf("sim: seeding %s: %w", wl.name, err)
	}
	if sc.Kind == "crash" {
		// Armed after seeding so setup load cannot crash.
		for i, w := range c.Workers {
			w.CW.Platform().SetFaults(&platform.CrashProb{P: 0.03, Seed: sc.Seed*31 + int64(i) + 1})
		}
	}
	var driveErr error
	root := s.Go(TaskOpts{Name: "driver"}, func() {
		driveErr = drive(s, c, sc, prng, wl, res)
	})
	runErr := s.Run(root)
	s.Shutdown()
	for _, w := range c.Workers {
		d := w.CW.Deployment()
		for _, fn := range d.Functions() {
			st := d.Runtime(fn).StatsSnapshot()
			res.Superseded += st.InstancesSuperseded
			if fn == wl.readHeavyFn {
				res.ReadHeavyResults += st.CallbacksIn
			}
		}
	}
	if runErr != nil {
		return runErr
	}
	return driveErr
}

// drive is the scenario's root task: spawn one client task per request
// (staggered, routed around the faulted worker), fire the kind's fault at
// mid-load, wait, quiesce, audit, settle-and-fsck.
func drive(s *Scheduler, c *Cluster, sc Scenario, prng *rand.Rand, wl *workload, res *Result) error {
	c.StartPumps()
	victim := prng.Intn(len(c.Workers))
	epochBefore := c.Workers[victim].CW.Worker().Epoch()
	avoid := -1 // clients route around this worker once a fault lands
	errs := make([]error, wl.requests)
	clients := make([]*Task, 0, wl.requests)
	var midErr error // the read-heavy request the pause kind stalls mid-batch
	for i := 0; i < wl.requests; i++ {
		if i == wl.requests/2 {
			switch sc.Kind {
			case "kill":
				c.Kill(victim)
				avoid = victim
			case "partition":
				c.Partition(victim)
				avoid = victim
			case "pause":
				if wl.readHeavy != nil {
					// Land the stall inside a read-heavy instance: the request
					// runs as the victim's own task, and the driver yields
					// until a seed-chosen number of its reads are queued. The
					// seed also picks which launch that is. A first launch has
					// no intent row yet: a peer restarts its caller, whose
					// replay relaunches the callee with a row of its own, and
					// the stalled original wakes to find its caller's row
					// closed or filled. Or the first launch is killed at its
					// first read, so the stalled instance is the caller's eager
					// relaunch, which owns a row and a log: the peer's
					// duplicate shares both, and the two flushes race.
					w := c.Workers[victim]
					res.ReadHeavy = "first"
					if prng.Intn(2) == 0 {
						res.ReadHeavy = "relaunch"
						w.CW.Platform().SetFaults(wl.readHeavyKill)
					}
					clients = append(clients, s.Go(TaskOpts{Name: "client.mid", Proc: w.Name}, func() {
						midErr = wl.readHeavy(w)
					}))
					for until := wl.readsDone(w) + 1 + int64(prng.Intn(wl.readHeavyReads-1)); wl.readsDone(w) < until; {
						s.Yield()
					}
				}
				c.Pause(victim)
				avoid = victim
			}
		}
		wi := i % len(c.Workers)
		if wi == avoid {
			wi = (wi + 1) % len(c.Workers)
		}
		w, i := c.Workers[wi], i
		clients = append(clients, s.Go(TaskOpts{Name: fmt.Sprintf("client%d", i)}, func() {
			errs[i] = wl.client(w, i)
		}))
		s.Sleep(2 * time.Millisecond)
	}
	if sc.Kind == "pause" {
		// The stall stays under T: past the GC horizon even correct code
		// may fail audits (the paper's §5 synchrony assumption).
		s.Sleep(simT / 2)
		c.Resume(victim)
	}
	s.Await(clients...)
	if sc.Kind == "partition" {
		// Let the pool declare the victim dead and steal, then heal; the
		// victim's own heartbeat pump must rejoin at a higher epoch.
		s.Sleep(3 * simLeaseTTL)
		c.Unpartition(victim)
		wk := c.Workers[victim].CW.Worker()
		deadline := s.Now().Add(30 * simLeaseTTL)
		for wk.Fenced() || wk.Epoch() <= epochBefore {
			if s.Now().After(deadline) {
				return fmt.Errorf("sim: partitioned worker %s never rejoined (fenced=%v, epoch %d -> %d)",
					c.Workers[victim].Name, wk.Fenced(), epochBefore, wk.Epoch())
			}
			s.Sleep(simLeaseTTL / 4)
		}
	}
	// Only kinds that kill instances may fail clients: a kill's in-flight
	// callers crash, and crash-kind clients die at random crash points.
	// Everything else must succeed end to end.
	if midErr != nil && !errors.Is(midErr, beldi.ErrInstanceSuperseded) {
		// The stalled request may lose to the duplicate a peer's collector
		// started (its intent is then the winner's to finish); nothing else
		// may fail it.
		return fmt.Errorf("sim: read-heavy client failed under kind=%s: %w", sc.Kind, midErr)
	}
	if sc.Kind != "kill" && sc.Kind != "crash" {
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("sim: client %d failed under kind=%s: %w", i, sc.Kind, err)
			}
		}
	}
	if sc.Kind == "crash" {
		// Stop the dice before draining: the audit's own probe invocations
		// and the collector's recovery re-executions must be able to finish
		// (the chaos tests disarm their crash plan the same way).
		for _, w := range c.Workers {
			w.CW.Platform().SetFaults(nil)
		}
	}
	if err := c.Quiesce(wl.fns, 30*time.Second); err != nil {
		return err
	}
	if err := wl.audit(c, sc, errs); err != nil {
		return err
	}
	if err := c.SettleAndCheck(16); err != nil {
		return err
	}
	if sc.Kind == "kill" {
		steals := int64(0)
		for i, w := range c.Workers {
			if i != victim {
				steals += w.CW.Worker().Stats().Steals.Load()
			}
		}
		if steals == 0 {
			return fmt.Errorf("sim: no partitions stolen from the killed worker")
		}
	}
	return nil
}

// workload bundles one application's registration, load and audit.
type workload struct {
	name     string
	fns      []string // intent tables Quiesce polls
	requests int
	register beldi.RegisterApp
	seed     func(c *Cluster) error
	client   func(w *Worker, i int) error
	audit    func(c *Cluster, sc Scenario, errs []error) error

	// readHeavy, when set, is one extra request to readHeavyFn, whose callee
	// instance issues readHeavyReads reads back to back and returns; readsDone
	// reports how many reads that callee function has begun on w, and
	// readHeavyKill kills the callee's first launch at its first read. The
	// pause kind uses them to stall a worker mid-batch.
	readHeavy      func(w *Worker) error
	readHeavyFn    string
	readHeavyReads int
	readsDone      func(w *Worker) int64
	readHeavyKill  platform.FaultPlan
}

func newWorkload(sc Scenario, prng *rand.Rand) *workload {
	switch sc.Workload {
	case "orders":
		return ordersWorkload(prng)
	case "fanout":
		return fanoutWorkload()
	default:
		return travelWorkload()
	}
}

// travelWorkload books a distinct (hotel, flight) pair per request, so
// exactly-once is auditable per workflow: both inventories must land at
// capacity-1 — a lost workflow leaves capacity, a duplicate capacity-2 —
// and the cross-SSF transaction keeps them in lockstep.
func travelWorkload() *workload {
	const capacity = 20
	wl := &workload{name: "travel", requests: 12}
	wl.fns = []string{travel.FnFrontend, travel.FnSearch, travel.FnGeo, travel.FnRate, travel.FnRecommend,
		travel.FnUser, travel.FnProfile, travel.FnReserve, travel.FnReserveHotel, travel.FnReserveFlight}
	// tally is the read-heavy request: it asks the hotel SSF for its inventory
	// audit — one instance reading all NumHotels rows before it returns the
	// sum — and records the answer. Bookings land while it runs, so the sum
	// is whatever that instance's reads happened to see: if a value that was
	// never logged leaked into the callback, the recorded and the replayed
	// answers would disagree.
	const fnTally = "tally"
	wl.fns = append(wl.fns, fnTally)
	wl.register = func(d *beldi.Deployment) {
		app := travel.Build(d)
		app.Capacity = capacity
		d.Function(fnTally, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
			sum, err := e.SyncInvoke(travel.FnReserveHotel, beldi.Fields(beldi.F("op", beldi.Str("audit"))))
			if err != nil {
				return beldi.Null, err
			}
			return sum, e.Write("tallies", in.Str(), sum)
		}, "tallies")
	}
	var tallied bool
	var talliedAck beldi.Value // Null unless the client was answered
	wl.readHeavyFn, wl.readHeavyReads = fnTally, travel.NumHotels
	// The audit's reads are the only non-transactional ones the hotel SSF
	// issues under load, so this label names its first launch alone.
	wl.readHeavyKill = &platform.CrashOnce{Function: travel.FnReserveHotel, Label: "read:pre:0.000001"}
	wl.readHeavy = func(w *Worker) error {
		tallied = true
		out, err := w.CW.Invoke(fnTally, beldi.Str("t0"))
		if err == nil {
			talliedAck = out
		}
		return err
	}
	wl.readsDone = func(w *Worker) int64 {
		return w.CW.Deployment().Runtime(travel.FnReserveHotel).StatsSnapshot().Reads
	}
	wl.seed = func(c *Cluster) error {
		for _, fn := range []string{travel.FnGeo, travel.FnRate, travel.FnRecommend, travel.FnProfile,
			travel.FnUser, travel.FnReserveHotel, travel.FnReserveFlight} {
			if _, err := c.Workers[0].CW.Invoke(fn, beldi.Fields(beldi.F("op", beldi.Str("seed")))); err != nil {
				return err
			}
		}
		return nil
	}
	wl.client = func(w *Worker, i int) error {
		_, err := w.CW.Invoke(travel.FnFrontend, beldi.Fields(
			beldi.F("op", beldi.Str("reserve")),
			beldi.F("hotel", beldi.Str(fmt.Sprintf("hotel-%03d", i))),
			beldi.F("flight", beldi.Str(fmt.Sprintf("flight-%03d", i))),
		))
		return err
	}
	wl.audit = func(c *Cluster, sc Scenario, errs []error) error {
		d := c.Live(0).CW.Deployment()
		hotelRT := d.Runtime(travel.FnReserveHotel)
		flightRT := d.Runtime(travel.FnReserveFlight)
		for i := 0; i < wl.requests; i++ {
			h, err := beldi.PeekState(hotelRT, "inventory", fmt.Sprintf("hotel-%03d", i))
			if err != nil {
				return err
			}
			f, err := beldi.PeekState(flightRT, "inventory", fmt.Sprintf("flight-%03d", i))
			if err != nil {
				return err
			}
			booked := h.Int() == capacity-1 && f.Int() == capacity-1
			untouched := h.Int() == capacity && f.Int() == capacity
			switch {
			case sc.Kind == "crash" && (booked || untouched):
				// A crash before the intent landed placed nothing; after
				// it, the collector finishes the booking. Both-or-neither
				// is the invariant.
			case sc.Kind != "crash" && booked:
				// Every other kind preserves the at-entry contract: the
				// intent lands before the first crash point can fire, so
				// each request books exactly once even when its caller
				// died.
			default:
				return fmt.Errorf("sim: request %d: hotel=%d flight=%d (capacity %d): not exactly-once",
					i, h.Int(), f.Int(), capacity)
			}
		}
		hot, err := travel.AuditInventory(d, travel.FnReserveHotel)
		if err != nil {
			return err
		}
		fl, err := travel.AuditInventory(d, travel.FnReserveFlight)
		if err != nil {
			return err
		}
		if hot != fl {
			return fmt.Errorf("sim: inventories diverged: hotel=%d flight=%d", hot, fl)
		}
		if tallied {
			got, err := beldi.PeekState(d.Runtime(fnTally), "tallies", "t0")
			if err != nil {
				return err
			}
			if got.IsNull() || (!talliedAck.IsNull() && !got.Equal(talliedAck)) {
				return fmt.Errorf("sim: tally recorded %v, client was answered %v", got, talliedAck)
			}
		}
		return nil
	}
	return wl
}

// ordersWorkload drives the event-driven order pipeline's asynchronous
// invocations and audits the per-order counters: every order whose frontend
// record exists is charged once, reserved once, shipped once and notified
// once.
func ordersWorkload(prng *rand.Rand) *workload {
	type placed struct {
		order       string
		qty, amount int64
	}
	wl := &workload{name: "orders", requests: 10}
	wl.fns = []string{orders.FnFrontend, orders.FnPayment, orders.FnInventory, orders.FnShipping, orders.FnNotify}
	reqs := make([]placed, wl.requests)
	for i := range reqs {
		reqs[i] = placed{
			order:  fmt.Sprintf("o-%04d", i),
			qty:    1 + int64(prng.Intn(3)),
			amount: 10 + int64(prng.Intn(90)),
		}
	}
	var apps []*orders.App // join order; parallel to Cluster.Workers
	wl.register = func(d *beldi.Deployment) {
		apps = append(apps, orders.Build(d))
	}
	wl.seed = func(c *Cluster) error {
		_, err := c.Workers[0].CW.Invoke(orders.FnInventory, beldi.Fields(beldi.F("op", beldi.Str("seed"))))
		return err
	}
	wl.client = func(w *Worker, i int) error {
		r := reqs[i]
		_, err := w.CW.Invoke(orders.FnFrontend,
			orders.PlaceRequest(r.order, orders.UserID(i%orders.NumUsers), orders.ItemID(i%orders.NumItems), r.qty, r.amount))
		return err
	}
	wl.audit = func(c *Cluster, sc Scenario, errs []error) error {
		live := 0
		for i, w := range c.Workers {
			if !w.Killed {
				live = i
				break
			}
		}
		frontendRT := c.Workers[live].CW.Deployment().Runtime(orders.FnFrontend)
		var inScope []placed
		for i, r := range reqs {
			rec, err := beldi.PeekState(frontendRT, "orders", r.order)
			if err != nil {
				return err
			}
			if !rec.IsNull() {
				inScope = append(inScope, r)
			} else if errs[i] == nil {
				return fmt.Errorf("sim: order %s acked but its frontend record is missing", r.order)
			}
		}
		var ids []string
		var wantRevenue, wantStock int64
		for _, r := range inScope {
			ids = append(ids, r.order)
			wantRevenue += r.amount
			wantStock += r.qty
		}
		tot, err := apps[live].Totals(ids)
		if err != nil {
			return err
		}
		n := len(inScope)
		if tot.Revenue != wantRevenue || tot.StockSold != wantStock ||
			tot.PaidOrders != n || tot.Shipments != n || tot.Notifications != int64(n) {
			return fmt.Errorf("sim: pipeline totals diverged: got %+v, want revenue=%d stock=%d paid=ship=note=%d",
				tot, wantRevenue, wantStock, n)
		}
		return nil
	}
	return wl
}

// fanoutDocs is the word-count corpus; the audit recomputes the expected
// totals with the mapper's tokenization (lower-case fields, punctuation
// trimmed).
func fanoutDocs() []fanout.Doc {
	return []fanout.Doc{
		{ID: "d0", Text: "Every workflow registers an intent before its first effect."},
		{ID: "d1", Text: "The collector finishes what a dead worker started; exactly once, not twice."},
		{ID: "d2", Text: "Leases expire, partitions move, and the epoch fence stops the zombie."},
		{ID: "d3", Text: "A torn write poisons the log; recovery truncates the tail and replays the rest."},
		{ID: "d4", Text: "Same seed, same interleaving, same trace: the failure replays on demand."},
		{ID: "d5", Text: "The garbage collector reaps a done intent only after the synchrony bound passes."},
	}
}

func expectedCounts(docs []fanout.Doc) map[string]int64 {
	want := map[string]int64{}
	for _, doc := range docs {
		for _, w := range strings.Fields(strings.ToLower(doc.Text)) {
			if w = strings.Trim(w, ".,;:!?\"'()"); w != "" {
				want[w]++
			}
		}
	}
	return want
}

// fanoutWorkload submits one fan-out word-count job (async promises:
// results posted into the driver's invoke log, logged awaits) and audits the committed totals
// against locally computed counts.
func fanoutWorkload() *workload {
	wl := &workload{name: "fanout", requests: 1}
	wl.fns = []string{fanout.FnMap, fanout.FnReduce}
	wl.register = func(d *beldi.Deployment) { fanout.Build(d) }
	wl.seed = func(*Cluster) error { return nil }
	wl.client = func(w *Worker, _ int) error {
		job, err := beldi.ToValue(fanout.Job{Docs: fanoutDocs()})
		if err != nil {
			return err
		}
		_, err = w.CW.Invoke(fanout.FnReduce, job)
		return err
	}
	wl.audit = func(c *Cluster, sc Scenario, errs []error) error {
		d := c.Live(0).CW.Deployment()
		tot, err := fanout.Totals(d)
		if err != nil {
			return err
		}
		if len(tot) == 0 {
			if errs[0] != nil {
				return nil // the job died before its intent landed: no totals is correct
			}
			return fmt.Errorf("sim: fan-out job acked but no totals committed")
		}
		want := expectedCounts(fanoutDocs())
		if len(tot) != len(want) {
			return fmt.Errorf("sim: fan-out totals have %d distinct words, want %d", len(tot), len(want))
		}
		for w, n := range want {
			if tot[w] != n {
				return fmt.Errorf("sim: fan-out count for %q = %d, want %d", w, tot[w], n)
			}
		}
		return nil
	}
	return wl
}

// counterRegister registers the restart-auditable workload runRestart
// drives: each request increments one shared locked counter and drops a
// per-request marker row, so after recovery the counter must equal the
// number of markers — a lost increment or a replayed one breaks the
// equality.
func counterRegister(d *beldi.Deployment) {
	d.Function("counter", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		key := in.Get("key").Str()
		if err := e.Lock("state", "total"); err != nil {
			return beldi.Null, err
		}
		v, err := e.Read("state", "total")
		if err != nil {
			return beldi.Null, err
		}
		if err := e.Write("state", "total", beldi.Int(v.Int()+1)); err != nil {
			return beldi.Null, err
		}
		if err := e.Unlock("state", "total"); err != nil {
			return beldi.Null, err
		}
		if err := e.Write("state", "mark."+key, beldi.Int(1)); err != nil {
			return beldi.Null, err
		}
		return beldi.Null, nil
	}, "state")
}

// restartKinds are the kinds runRestart drives, with what each varies: the
// range its tear's append index is drawn from, its phase-1 wave budget and
// its phase-1 key prefix.
var restartKinds = map[string]struct {
	tearFrom, tearSpan, waves int
	prefix                    string
}{
	// Past any setup append, inside the load phase's range.
	"torn": {150, 150, 6, "t-"},
	// The overlay batches the hot path into few large appends: generation
	// one makes 21–42 of them over seeds 0–329. The low end tears inside
	// the load, the high end may never fire — then the kill+drop alone is
	// the crash.
	"spec": {10, 40, 5, "s-"},
}

// isRestart reports whether kind is a two-generation kind (runRestart).
func isRestart(kind string) bool {
	_, ok := restartKinds[kind]
	return ok
}

// runRestart is the two-generation scenario the torn and spec kinds share.
// Generation one runs the counter workload on a WAL store armed with a
// seeded torn append (the Nth framed record is cut or corrupted, poisoning
// the store mid-load, like a process dying mid-write). Under torn it is two
// workers, loaded until the tear fires or the waves run out. Under spec it
// is a single worker over the commit-pipelining overlay (internal/pipeline
// in ManualFlush mode — a scheduled pump task is the committer, so the flush
// cadence is part of the explored schedule), killed at a seed-chosen wave
// with clients in flight; the overlay then drops everything above the
// durability watermark — the crash window between speculative execution and
// batch durability. Either way the harness kills generation one and reopens
// the directory, which holds a consistent log prefix, possibly ending in a
// torn record the WAL recovery must truncate. A fresh generation must then
// recover — steal the dead generation's partitions, finish the surviving
// intents, serve new load — and the audit requires counter == markers
// (exactly-once across the restart), that every increment acked before
// generation one died kept its marker, that the reopened store truncated
// exactly the bytes the torn append left, and both Fscks clean.
func runRestart(s *Scheduler, sc Scenario, prng *rand.Rand, dir string, res *Result) error {
	kind := restartKinds[sc.Kind]
	tear := &TornWrite{
		AppendN: kind.tearFrom + prng.Intn(kind.tearSpan),
		CutAt:   1 + prng.Intn(64),
		Flip:    prng.Intn(2) == 0,
	}
	ws, err := walstore.Open(dir, walstore.Options{Sync: walstore.SyncNone, FS: tear.On(walstore.OS)})
	if err != nil {
		return err
	}
	var overlay *pipeline.Store
	var ws2 *walstore.Store
	defer func() {
		// Every store this run opened is closed on every path; a second
		// Close is a no-op.
		if overlay != nil {
			overlay.DropAndClose()
		}
		ws.Close() //nolint:errcheck // poisoned stores report the injected tear here
		if ws2 != nil {
			ws2.Close() //nolint:errcheck // a passing run closed it already and checked
		}
	}()
	cfg := ClusterConfig{Workers: 2, Config: simConfig(), Register: counterRegister}
	var gen1 storage.Backend = ws
	killWave := -1
	if sc.Kind == "spec" {
		// The overlay sits UNDER the worker's sim wrapper (the wrapper's
		// inner store), not above it: every overlay operation — a
		// speculative append, a fence's inline flush — then runs atomically
		// inside one scheduling point, so the overlay's real mutex is never
		// held across a park. The inverted arrangement (overlay wrapping the
		// sim backend) let a fence park mid-flush with the mutex held while
		// the flush pump blocked on that same mutex with the baton — a
		// schedule-dependent deadlock.
		if overlay, err = pipeline.New(ws, pipeline.Options{ManualFlush: true}); err != nil {
			return err
		}
		// One worker: the overlay assumes a single writing process (see the
		// pipeline package comment), which is exactly the deployment model
		// speculation ships under.
		gen1, cfg.Workers = overlay, 1
		killWave = 1 + prng.Intn(kind.waves-1)
	}
	c, err := NewCluster(s, gen1, cfg)
	if err != nil {
		return err
	}

	const phase1, phase2 = 6, 6
	var keys []string
	phase1Errs := map[string]error{}
	// launch starts one counter client per entry of errs, keyed prefix+NNN
	// from first and placed round robin over c's workers, 2 ms apart.
	launch := func(c *Cluster, prefix string, first int, errs []error) []*Task {
		var tasks []*Task
		for i := range errs {
			key := fmt.Sprintf("%s%03d", prefix, first+i)
			keys = append(keys, key)
			w := c.Workers[(first+i)%len(c.Workers)]
			tasks = append(tasks, s.Go(TaskOpts{Name: "client." + key}, func() {
				_, errs[i] = w.CW.Invoke("counter", beldi.Fields(beldi.F("key", beldi.Str(key))))
			}))
			s.Sleep(2 * time.Millisecond)
		}
		return tasks
	}
	var driveErr error
	root := s.Go(TaskOpts{Name: "driver"}, func() {
		driveErr = func() error {
			c.StartPumps()
			if overlay != nil {
				// The committer as a first-class scheduled task: every flush
				// is a schedule decision, and killing the worker kills it
				// mid-cadence.
				w0 := c.Workers[0]
				s.Go(TaskOpts{Name: w0.Name + ".flush", Proc: w0.Name, Pump: true}, func() {
					for {
						s.Sleep(simLeaseTTL / 4)
						if w0.Killed {
							return
						}
						// The overlay is beneath the sim wrapper, so the
						// flush's base write is not a wrapped operation —
						// note it here to keep flush rounds in the trace.
						s.Note("flushstep @" + w0.Name)
						overlay.FlushStep() //nolint:errcheck // poison surfaces at fences and clients
					}
				})
			}
			// Phase 1: drive waves of increments until the kill wave
			// (clients still in flight when the worker dies), until the tear
			// poisons the store (a client error is the signal), or until the
			// wave budget runs out — the tear's append index is seed-chosen,
			// so the wave in which it fires varies.
			down := false
			for wave := 0; wave < kind.waves && !down; wave++ {
				waveErrs := make([]error, phase1)
				tasks := launch(c, kind.prefix, wave*phase1, waveErrs)
				if wave == killWave {
					// The crash window: this wave's workflows have steps
					// speculated above the durability watermark.
					c.Kill(0)
					down = true
				}
				s.Await(tasks...)
				for i := 0; i < phase1; i++ {
					phase1Errs[keys[wave*phase1+i]] = waveErrs[i]
					if waveErrs[i] != nil {
						down = true
					}
				}
			}
			// Generation one dies; the directory is everything that
			// survives.
			for i, w := range c.Workers {
				if !w.Killed {
					c.Kill(i)
				}
			}
			if overlay != nil {
				// The worker dies with its speculation tail: the base keeps
				// only the flushed prefix.
				overlay.DropAndClose()
				if overlay.Snapshot().Appended == 0 {
					return fmt.Errorf("sim: spec scenario speculated nothing; the overlay never saw the load")
				}
			}
			ws.Close() //nolint:errcheck // poisoned stores report the injected tear here
			reopened, err := walstore.Open(dir, walstore.Options{Sync: walstore.SyncNone})
			if err != nil {
				return fmt.Errorf("sim: %s: reopening walstore: %w", sc.Kind, err)
			}
			ws2 = reopened
			res.Torn = tear.Left
			if got := ws2.WAL().TruncatedBytes.Load(); got != int64(tear.Left) {
				return fmt.Errorf("sim: %s: the reopened store truncated %d bytes, the torn append left %d", sc.Kind, got, tear.Left)
			}
			c2, err := NewCluster(s, ws2, ClusterConfig{
				Workers:    2,
				NamePrefix: "r",
				Config:     simConfig(),
				Register:   counterRegister,
				Rejoin:     true, // generation one's leases are still on record
			})
			if err != nil {
				return fmt.Errorf("sim: %s: rejoining after the restart: %w", sc.Kind, err)
			}
			c2.StartPumps()
			// Let the dead generation's leases expire and be stolen.
			s.Sleep(3 * simLeaseTTL)
			// Phase 2: new load through the recovered pool must fully
			// succeed.
			phase2Errs := make([]error, phase2)
			s.Await(launch(c2, "u-", 0, phase2Errs)...)
			for i, err := range phase2Errs {
				if err != nil {
					return fmt.Errorf("sim: post-recovery request %d failed: %w", i, err)
				}
			}
			if err := c2.Quiesce([]string{"counter"}, 30*time.Second); err != nil {
				return err
			}
			// Audit: the counter equals the number of marker rows. A
			// workflow whose intent survived the crash was finished by
			// generation two (increment and marker both land, once); one
			// whose intent was torn or dropped away never ran at all. And no
			// acked increment lost its marker — under spec the reply fence
			// means an ack implies durability, even though the worker died
			// with unflushed speculation behind it.
			rt := c2.Live(0).CW.Deployment().Runtime("counter")
			markers := 0
			for _, key := range keys {
				m, err := beldi.PeekState(rt, "state", "mark."+key)
				if err != nil {
					return err
				}
				if !m.IsNull() {
					markers++
				} else if err, ok := phase1Errs[key]; ok && err == nil {
					return fmt.Errorf("sim: %s: increment %s acked before generation one died but its marker is gone", sc.Kind, key)
				}
			}
			total, err := beldi.PeekState(rt, "state", "total")
			if err != nil {
				return err
			}
			if total.Int() != int64(markers) {
				return fmt.Errorf("sim: %s: counter=%d but %d markers present: not exactly-once across the restart",
					sc.Kind, total.Int(), markers)
			}
			if markers < phase2 {
				return fmt.Errorf("sim: only %d markers present, phase 2 alone placed %d", markers, phase2)
			}
			return c2.SettleAndCheck(8)
		}()
	})
	runErr := s.Run(root)
	s.Shutdown()
	if runErr == nil {
		runErr = driveErr
	}
	if runErr != nil {
		return runErr
	}
	if err := ws2.Close(); err != nil {
		return fmt.Errorf("sim: closing recovered walstore: %w", err)
	}
	if err := walstore.Fsck(dir); err != nil {
		return fmt.Errorf("sim: %s: walstore fsck after recovery: %w", sc.Kind, err)
	}
	return nil
}

// SweepOptions configure a Sweep.
type SweepOptions struct {
	// Seeds are the scenario seeds to run, in order.
	Seeds []int64
	// Logf receives progress and failure lines (testing.T.Logf-shaped);
	// nil discards them.
	Logf func(format string, args ...any)
}

// SeedResult is one seed's outcome within a sweep.
type SeedResult struct {
	Result
	// Err is the run's failure, nil when every audit passed.
	Err error
}

// Report is a sweep's outcome.
type Report struct {
	// Results holds every seed's outcome, in input order.
	Results []SeedResult
	// Failures holds the failing subset, in input order.
	Failures []SeedResult
}

// Sweep runs every seed's scenario once, each through RunSeed on a WAL
// store of its own, and reports the failures; each failure logs the exact
// command that replays it. CI runs a bounded sweep in tier-1 and a deep one
// nightly (see .github/workflows/ci.yml).
func Sweep(o SweepOptions) Report {
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rep Report
	for _, seed := range o.Seeds {
		res, err := RunSeed(seed)
		sr := SeedResult{Result: res, Err: err}
		rep.Results = append(rep.Results, sr)
		sc := res.Scenario
		if err != nil {
			rep.Failures = append(rep.Failures, sr)
			logf("sim: seed %d FAILED (kind=%s workload=%s policy=%s): %v\n  reproduce: %s",
				seed, sc.Kind, sc.Workload, sc.Policy, err, ReproLine(seed))
		} else {
			logf("sim: seed %d ok (kind=%s workload=%s policy=%s): %d steps, trace %016x",
				seed, sc.Kind, sc.Workload, sc.Policy, res.Steps, res.TraceHash)
		}
	}
	return rep
}
