package fanout

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

func newDeployment(t *testing.T, faults platform.FaultPlan) *beldi.Deployment {
	t.Helper()
	store := storagetest.Open(t)
	plat := platform.New(platform.Options{
		ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}, Faults: faults,
	})
	return beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat,
		Config: beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Millisecond},
	})
}

func corpus() Job {
	return Job{Docs: []Doc{
		{ID: "d0", Text: "the quick brown fox"},
		{ID: "d1", Text: "the lazy dog and the quick cat"},
		{ID: "d2", Text: "fox and dog, dog and fox!"},
		{ID: "d3", Text: "a cat. A CAT!"},
		{ID: "d4", Text: "quick quick quick"},
		{ID: "d5", Text: "the end"},
		{ID: "d6", Text: "brown bears and brown foxes"},
		{ID: "d7", Text: "dog days"},
	}}
}

func TestWordCountFanOut(t *testing.T) {
	d := newDeployment(t, nil)
	app := Build(d)
	sum, err := app.Reduce.Invoke(corpus())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Docs != 8 {
		t.Errorf("docs = %d", sum.Docs)
	}
	m, err := Totals(d)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range map[string]int64{"the": 4, "quick": 5, "dog": 4, "cat": 3, "brown": 3} {
		if m[w] != want {
			t.Errorf("count[%s] = %d, want %d", w, m[w], want)
		}
	}
	var total int64
	for _, n := range m {
		total += n
	}
	if total != sum.Words {
		t.Errorf("summary words %d != committed total %d", sum.Words, total)
	}
	if err := d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestWordCountCrashSweep kills the reduce driver at a sweep of operation
// boundaries — through the fan-out, mid-fan-in, and after the merge — and
// checks the collector-finished totals are identical to an undisturbed
// run: no lost mapper, no double-counted document.
func TestWordCountCrashSweep(t *testing.T) {
	clean := newDeployment(t, nil)
	Build(clean)
	if _, err := clean.Invoke(FnReduce, mustValue(t, corpus())); err != nil {
		t.Fatal(err)
	}
	want, err := Totals(clean)
	if err != nil {
		t.Fatal(err)
	}

	// The driver's crash points: 8 async registrations (3 ops each), 8
	// awaits, the totals write. Sweep positions across all phases.
	for _, n := range []int{1, 5, 12, 24, 26, 30, 33, 35} {
		t.Run(fmt.Sprintf("crashOp%d", n), func(t *testing.T) {
			d := newDeployment(t, &platform.CrashNthOp{Function: FnReduce, N: n})
			Build(d)
			_, invokeErr := d.Invoke(FnReduce, mustValue(t, corpus()))
			// Drive collection until the reduce intent completes.
			deadline := time.Now().Add(5 * time.Second)
			for {
				time.Sleep(2 * time.Millisecond)
				if err := d.RunAllCollectors(); err != nil {
					t.Fatal(err)
				}
				got, err := Totals(d)
				if err != nil {
					t.Fatal(err)
				}
				if mapsEqual(got, want) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("crash op %d (invoke err %v): totals never converged: got %v want %v",
						n, invokeErr, got, want)
				}
			}
			// Converged totals must also be stable: another collector round
			// must not double anything.
			if err := d.RunAllCollectors(); err != nil {
				t.Fatal(err)
			}
			got, err := Totals(d)
			if err != nil {
				t.Fatal(err)
			}
			if !mapsEqual(got, want) {
				t.Errorf("totals drifted after extra collection: got %v want %v", got, want)
			}
			if err := d.FsckAll(); err != nil {
				t.Error(err)
			}
		})
	}
}

func mustValue(t *testing.T, v any) beldi.Value {
	t.Helper()
	out, err := beldi.ToValue(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// eventCounting is a counting store that also counts the commit events the
// waits on one table have taken from their subscriptions, skipped or not.
type eventCounting struct {
	*storagetest.Counting
	table  string
	events atomic.Int64
}

func (c *eventCounting) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	sub, err := c.Counting.Watch(table, hash)
	if err != nil || table != c.table {
		return sub, err
	}
	return countedSub{sub, &c.events}, nil
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

// TestFanOutJobStoreOpsByTable prices one job of 8 mappers, table by table.
// Delivery is made deterministic: the platform hands each mapper's fire to
// the test, which runs them one at a time on its own goroutine; the await's
// fallback timer is out of reach, and each run waits for the driver's wait
// to have taken the commit event of the post it caused — so the results
// arrive one by one, in order, the case that once cost the fan-in a wake-up
// fetch plus the next await's first fetch per result. The fan-in now waits
// once: one fetch finds nothing, the wait skips the first 7 posts and wakes
// on the 8th, and one more fetch finds all 8.
func TestFanOutJobStoreOpsByTable(t *testing.T) {
	const fanIn = FnReduce + ".invokelog"
	store := &eventCounting{Counting: storagetest.NewCounting(dynamo.NewStore()), table: fanIn}
	fires := make(chan func(), 64)
	plat := platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"},
		AsyncDispatch: func(run func()) { fires <- run }})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat,
		Config: beldi.Config{LockRetryBase: time.Hour}})
	app := Build(d)
	d.EnableDurableAsync(beldi.DurableAsyncOptions{})
	job := corpus()
	docs := len(job.Docs)

	until := func(what string, n int, got func() int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); got() < n; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("driver stuck at %d %s, waiting for %d: %v", got(), what, n, store.Counts())
			}
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := app.Reduce.Invoke(job)
		done <- err
	}()
	// Fanned out, and waiting on all the results.
	until("fan-in fetches", 1, func() int { return store.Count(fanIn, "query") })
	for i := 1; i <= docs; i++ {
		select {
		case run := <-fires:
			run()
		default:
			t.Fatalf("run %d: the driver fired only %d mappers", i, i-1)
		}
		until("commit events taken", i, func() int { return int(store.events.Load()) })
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	want := map[string]int{
		// The driver: its intent, per document an invoke-log insert, the
		// registration's confirming callback and the posted result, the fan-in
		// fetches, one flush of the 8 await rows, and the totals' first write.
		FnReduce + ".intent put":         1,
		FnReduce + ".intent update":      1,
		fanIn + " update":                3 * docs,
		fanIn + " query":                 2,
		FnReduce + ".readlog transact":   1,
		FnReduce + ".data.totals query":  1,
		FnReduce + ".data.totals update": 1,
		// Each mapper: intent registered, loaded by the run, marked done; its
		// document's first write.
		FnMap + ".intent put":         docs,
		FnMap + ".intent get":         docs,
		FnMap + ".intent update":      docs,
		FnMap + ".data.perdoc query":  docs,
		FnMap + ".data.perdoc update": docs,
	}
	got := store.Counts()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s = %d, want %d", k, got[k], n)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s = %d: an op on a table, or of a kind, the budget does not know", k, n)
		}
	}
	if err := d.FsckAll(); err != nil {
		t.Fatal(err)
	}
}
