package bench

import (
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/beldi"
	"repro/internal/apps/fanout"
	"repro/internal/apps/travel"
	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
	"repro/internal/walstore"
)

// The count figure: what one workflow of each benchmark workload costs the
// store — ops table by table, stored bytes, WAL records, fsyncs and RPCs —
// with the collectors' ops counted apart, priced the way §7.3 and the
// extended version's cost section price ops. Workflows run one
// at a time on a clock.Virtual, and the collection advances that clock, so
// every count is an exact function of the seed: testdata/costs.golden pins
// them, and `figures -fig counts -json` writes the same rows as
// BENCH_counts.json.

// CountSet is one workload on one storage stack.
type CountSet struct {
	Workload  string `json:"workload"` // "travel", "chain" or "fanout"
	Stack     string `json:"stack"`    // "memory" (dynamo) or "remote-wal" (remote → loopback → walstore)
	Workflows int    `json:"workflows"`
	Seed      int64  `json:"seed"`
}

// CountSets are the sets the golden pins: each workload at the benchmark's
// episode size on both stacks (travel 5 000 as travel-mem runs it and 800
// as travel-remote-wal does, the chain 1 500), the fan-out one job.
func CountSets(seed int64) []CountSet {
	return []CountSet{
		{"travel", "memory", 5000, seed},
		{"travel", "remote-wal", 800, seed},
		{"chain", "memory", 1500, seed},
		{"chain", "remote-wal", 1500, seed},
		{"fanout", "memory", 1, seed},
		{"fanout", "remote-wal", 1, seed},
	}
}

// CountRow is what one set cost, per workflow. Ops and Collector are keyed
// "table kind", as storagetest.Counting counts them; a TransactWrite counts
// once.
type CountRow struct {
	CountSet
	StoreOps    float64            `json:"store_ops"`
	Ops         map[string]float64 `json:"ops"`
	StoredBytes float64            `json:"stored_bytes"` // every table, after the collection
	WALRecords  float64            `json:"wal_records"`
	Fsyncs      float64            `json:"fsyncs"`
	RPCs        float64            `json:"rpcs"`
	// The collection: the benchmark's untimed tail, four rounds of an
	// intent- and a garbage-collector pass per function in name order, the
	// clock advanced 3T between rounds.
	CollectorOps float64            `json:"collector_ops"`
	Collector    map[string]float64 `json:"collector"`
	// BilledOps is StoreOps + CollectorOps.
	BilledOps float64 `json:"billed_ops"`
}

// countConfig is the benchmark's protocol configuration (benchmarks/stack.go)
// with the waits' wall-clock fallback out of reach, so that a wait ends on
// the commit event it waits for and the fan-in's fetches are exact.
var countConfig = beldi.Config{RowCap: 16, T: 20 * time.Millisecond, LockRetryBase: time.Hour}

// RunCount runs set and counts it.
func RunCount(set CountSet) (CountRow, error) {
	st, err := openCountStack(set.Stack)
	if err != nil {
		return CountRow{}, err
	}
	defer st.close()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	// A fan-out's fires are handed to the runner, which delivers them one
	// at a time; no other workload fires anything. The buffer holds more
	// than a job's 8, so that a stray fire (the collection's relaunch, say)
	// is reported below instead of blocking its sender.
	fires := make(chan func(), 64)
	plat := platform.New(platform.Options{Seed: set.Seed, IDs: &uuid.Seq{Prefix: "req"}, Clock: clk,
		AsyncDispatch: func(run func()) { fires <- run }})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: st.top, Platform: plat, Mode: beldi.ModeBeldi,
		Config: countConfig, IDs: &uuid.Seq{Prefix: "id"}, Clock: clk})
	defer d.Stop()

	var invoke func(i int) error
	switch set.Workload {
	case "travel":
		invoke, err = prepareTravelCounts(d, set)
	case "chain":
		invoke = prepareChainCounts(d, set)
	case "fanout":
		invoke = prepareFanoutCounts(d, set, st, fires)
	default:
		err = fmt.Errorf("bench: unknown count workload %q", set.Workload)
	}
	if err != nil {
		return CountRow{}, err
	}
	unheld := func(when string) error {
		if n := len(fires); n > 0 {
			return fmt.Errorf("bench: %s/%s: %d fires left %s", set.Workload, set.Stack, n, when)
		}
		return nil
	}

	before := st.sample()
	for i := 0; i < set.Workflows; i++ {
		if err := invoke(i); err != nil {
			return CountRow{}, fmt.Errorf("bench: %s/%s workflow %d: %w", set.Workload, set.Stack, i, err)
		}
	}
	if err := unheld("after the workflows"); err != nil {
		return CountRow{}, err
	}
	ran := st.sample()
	for round := 0; round < 4; round++ {
		if round > 0 {
			clk.Advance(3 * countConfig.T)
		}
		if err := d.RunAllCollectors(); err != nil {
			return CountRow{}, fmt.Errorf("bench: %s/%s collection: %w", set.Workload, set.Stack, err)
		}
	}
	if err := unheld("by the collection"); err != nil {
		return CountRow{}, err
	}
	collected := st.sample()
	stored, err := st.storedBytes()
	if err != nil {
		return CountRow{}, err
	}

	n := float64(set.Workflows)
	work, gc := ran.sub(before), collected.sub(ran)
	row := CountRow{
		CountSet:     set,
		StoreOps:     float64(work.total) / n,
		Ops:          perWorkflow(work.ops, n),
		StoredBytes:  float64(stored) / n,
		WALRecords:   float64(work.walRecords) / n,
		Fsyncs:       float64(work.fsyncs) / n,
		RPCs:         float64(work.rpcs) / n,
		CollectorOps: float64(gc.total) / n,
		Collector:    perWorkflow(gc.ops, n),
	}
	row.BilledOps = row.StoreOps + row.CollectorOps
	return row, nil
}

func perWorkflow(ops map[string]int, n float64) map[string]float64 {
	out := make(map[string]float64, len(ops))
	for k, v := range ops {
		if v != 0 {
			out[k] = float64(v) / n
		}
	}
	return out
}

// travelMix and travelRequests copy benchmarks/workloads.go's (the benchmark
// module's stratified DeathStarBench mix, which the root module cannot
// import): every block of 100 requests holds exactly this mix.
var travelMix = []struct {
	op    string
	share int
}{{"search", 60}, {"recommend", 18}, {"login", 15}, {"reserve", 7}}

func travelRequests(seed int64, n int) []beldi.Value {
	r := rand.New(rand.NewSource(seed))
	gen := new(travel.App)
	reqs := make([]beldi.Value, 0, n)
	for len(reqs) < n {
		left := make(map[string]int, len(travelMix))
		for _, m := range travelMix {
			left[m.op] = m.share
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

// prepareTravelCounts seeds the travel app sealed, as the benchmark does.
func prepareTravelCounts(d *beldi.Deployment, set CountSet) (func(int) error, error) {
	reqs := travelRequests(set.Seed, set.Workflows)
	app := travel.Build(d)
	if err := app.Seed(); err != nil {
		return nil, err
	}
	return func(i int) error {
		_, err := d.Invoke(app.Entry(), reqs[i])
		return err
	}, nil
}

// prepareChainCounts registers the benchmark's chain (benchmarks/
// workloads.go): 8 logged writes per workflow to keys drawn from 2 048.
func prepareChainCounts(d *beldi.Deployment, set CountSet) func(int) error {
	const keys, writes = 2048, 8
	r := rand.New(rand.NewSource(set.Seed))
	reqs := make([]beldi.Value, set.Workflows)
	for i := range reqs {
		ws := make([]beldi.Value, writes)
		for j, k := range r.Perm(keys)[:writes] {
			ws[j] = beldi.Map(map[string]beldi.Value{"k": beldi.Str(fmt.Sprintf("k%04d", k)), "v": beldi.Int(int64(i*writes + j))})
		}
		reqs[i] = beldi.List(ws...)
	}
	d.Function("chain", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		for _, w := range in.List() {
			m := w.Map()
			if err := e.Write("state", m["k"].Str(), m["v"]); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Int(int64(len(in.List()))), nil
	}, "state")
	return func(i int) error {
		_, err := d.Invoke("chain", reqs[i])
		return err
	}
}

// prepareFanoutCounts runs a job of the benchmark's shape (8 documents of 24
// words over a 64-word vocabulary) paced as TestFanOutJobStoreOpsByTable
// paces it: the mappers' fires run one at a time, each after the driver's
// fan-in wait has taken the commit event of the post before it, so the
// results arrive one by one and the fan-in's fetches are exact.
func prepareFanoutCounts(d *beldi.Deployment, set CountSet, st *countStack, fires chan func()) func(int) error {
	r := rand.New(rand.NewSource(set.Seed))
	jobs := make([]fanout.Job, set.Workflows)
	for i := range jobs {
		docs := make([]fanout.Doc, 8)
		for k := range docs {
			text := ""
			for w := 0; w < 24; w++ {
				text += fmt.Sprintf("w%02d ", r.Intn(64))
			}
			docs[k] = fanout.Doc{ID: fmt.Sprintf("j%04d-d%d", i, k), Text: text}
		}
		jobs[i] = fanout.Job{Docs: docs}
	}
	app := fanout.Build(d)
	d.EnableDurableAsync(beldi.DurableAsyncOptions{})
	fanIn := fanout.FnReduce + ".invokelog"
	st.watched = fanIn
	return func(i int) error {
		until := func(what string, n int64, got func() int64) error {
			for deadline := time.Now().Add(10 * time.Second); got() < n; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					return fmt.Errorf("driver stuck at %d %s, waiting for %d", got(), what, n)
				}
			}
			return nil
		}
		done := make(chan error, 1)
		queries := int64(st.counting.Count(fanIn, "query"))
		events := st.events.Load()
		go func() {
			_, err := app.Reduce.Invoke(jobs[i])
			done <- err
		}()
		if err := until("fan-in fetches", queries+1, func() int64 { return int64(st.counting.Count(fanIn, "query")) }); err != nil {
			return err
		}
		for k := range jobs[i].Docs {
			select {
			case run := <-fires:
				run()
			case err := <-done:
				return fmt.Errorf("driver returned after %d mappers: %v", k, err)
			}
			if err := until("commit events taken", events+int64(k)+1, st.events.Load); err != nil {
				return err
			}
		}
		return <-done
	}
}

// countStack is one set's storage plane, with a counting store on top.
type countStack struct {
	counting *storagetest.Counting
	top      storage.Backend // counting, watches on the watched table counted
	watched  string
	events   atomic.Int64 // commit events the waits on watched have taken

	mem    *dynamo.Store
	dir    string
	wal    *walstore.Store
	srv    *remote.Server
	client *remote.Client
}

func openCountStack(kind string) (_ *countStack, err error) {
	st := &countStack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var bottom storage.Backend
	switch kind {
	case "memory":
		st.mem = dynamo.NewStore()
		bottom = st.mem
	case "remote-wal":
		if st.dir, err = os.MkdirTemp("", "beldi-counts-*"); err != nil {
			return nil, err
		}
		if st.wal, err = walstore.Open(st.dir, walstore.Options{AutoCompactBytes: -1, FS: freeSyncFS{walstore.OS}}); err != nil {
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.srv = remote.NewServer(st.wal, remote.ServeOptions{})
		go st.srv.Serve(lis) //nolint:errcheck // returns nil after Close
		if st.client, err = remote.Dial(lis.Addr().String(), remote.Options{PoolSize: 2, ClientID: "counts"}); err != nil {
			return nil, err
		}
		bottom = st.client
	default:
		return nil, fmt.Errorf("bench: unknown count stack %q", kind)
	}
	st.counting = storagetest.NewCounting(bottom)
	st.top = watchCounting{st.counting, st}
	return st, nil
}

func (st *countStack) close() {
	if st.client != nil {
		st.client.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.wal != nil {
		st.wal.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// countSample is the stack's counters at one moment.
type countSample struct {
	ops                      map[string]int
	total                    int64
	walRecords, fsyncs, rpcs int64
}

func (st *countStack) sample() countSample {
	s := countSample{ops: st.counting.Counts(), total: st.counting.Metrics().Snapshot().TotalOps()}
	if st.wal != nil {
		v := st.wal.WAL().Snapshot()
		s.walRecords, s.fsyncs = v.Records, v.Fsyncs
	}
	if st.client != nil {
		s.rpcs = st.client.Stats().Snapshot().RPCs
	}
	return s
}

func (s countSample) sub(o countSample) countSample {
	d := countSample{ops: make(map[string]int, len(s.ops)), total: s.total - o.total,
		walRecords: s.walRecords - o.walRecords, fsyncs: s.fsyncs - o.fsyncs, rpcs: s.rpcs - o.rpcs}
	for k, v := range s.ops {
		d.ops[k] = v - o.ops[k]
	}
	return d
}

// storedBytes sums every table's footprint in the store that holds the rows.
func (st *countStack) storedBytes() (int, error) {
	var b storage.Backend = st.mem
	if st.wal != nil {
		b = st.wal
	}
	total := 0
	for _, name := range b.TableNames() {
		n, err := b.TableBytes(name)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// watchCounting is the counting store with the commit events taken by the
// waits on one table counted (the fan-out's pacing).
type watchCounting struct {
	*storagetest.Counting
	st *countStack
}

func (w watchCounting) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	sub, err := w.Counting.Watch(table, hash)
	if err != nil || table != w.st.watched {
		return sub, err
	}
	return countedSub{sub, &w.st.events}, nil
}

type countedSub struct {
	storage.Subscription
	events *atomic.Int64
}

func (s countedSub) Wait(d time.Duration, cancel <-chan struct{}, skip func(storage.CommitEvent) bool) bool {
	return s.Subscription.Wait(d, cancel, func(ev storage.CommitEvent) bool {
		s.events.Add(1)
		return skip != nil && skip(ev)
	})
}

// freeSyncFS is a walstore.FS whose fsyncs return at once: the store still
// issues and counts every one (walstore's Fsyncs), but no device wait enters
// a count run.
type freeSyncFS struct{ walstore.FS }

func (f freeSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (walstore.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return freeSyncFile{file}, nil
}

func (freeSyncFS) SyncDir(string) error { return nil }

type freeSyncFile struct{ walstore.File }

func (freeSyncFile) Sync() error { return nil }

// FormatCounts renders rows as testdata/costs.golden holds them: one line
// per count, per workflow, the per-table lines in name order, so a diff
// names exactly the counts that moved.
func FormatCounts(rows []CountRow) string {
	var b strings.Builder
	for _, r := range rows {
		p := r.Workload + " " + r.Stack
		fmt.Fprintf(&b, "%s workflows %d seed %d\n", p, r.Workflows, r.Seed)
		line := func(name string, v float64) { fmt.Fprintf(&b, "%s %s %.4f\n", p, name, v) }
		line("store_ops", r.StoreOps)
		for _, k := range slices.Sorted(maps.Keys(r.Ops)) {
			line("op "+k, r.Ops[k])
		}
		line("stored_bytes", r.StoredBytes)
		line("wal_records", r.WALRecords)
		line("fsyncs", r.Fsyncs)
		line("rpcs", r.RPCs)
		line("collector_ops", r.CollectorOps)
		for _, k := range slices.Sorted(maps.Keys(r.Collector)) {
			line("collector "+k, r.Collector[k])
		}
		line("billed_ops", r.BilledOps)
	}
	return b.String()
}
