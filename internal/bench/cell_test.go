package bench

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remote"
)

// TestCellSetsPinned pins the five figures' default grids, not the machine:
// the ordered row labels of each set and, per cell, the parameters the figure
// is defined by. It fails if a cell is dropped, reordered or re-parameterised.
func TestCellSetsPinned(t *testing.T) {
	const (
		window = 400 * time.Millisecond
		scale  = 0.07
		seed   = 9
	)
	cross := func(rows []string, cols ...string) (out []string) {
		for _, r := range rows {
			for _, c := range cols {
				out = append(out, r+"/"+c)
			}
		}
		return out
	}
	sets := []struct {
		figure string
		cells  []Cell
		labels []string
	}{
		{"shard", ShardCells(window, scale, seed), cross([]string{"1", "2", "4", "8"}, "plain", "batched")},
		{"backend", BackendCells(window, seed), []string{"memory", "wal-nosync", "wal-batched", "wal-each"}},
		{"remote", RemoteCells(window, seed), []string{"inproc", "0s", "500µs", "2ms"}},
		{"pipeline", PipelineCells(window, scale, seed), cross([]string{"memory", "wal", "remote"}, "1", "32", "256", "1024")},
		{"latency", LatencyCells(window, seed), cross([]string{"memory", "wal-batched", "wal-each"}, "1", "8", "32")},
	}
	for _, set := range sets {
		var labels []string
		for _, c := range set.cells {
			labels = append(labels, c.Label)
		}
		if !slices.Equal(labels, set.labels) {
			t.Errorf("%s: cells %q, want %q", set.figure, labels, set.labels)
			continue
		}
		for _, c := range set.cells {
			// What the label says, field by field.
			head, tail, _ := strings.Cut(c.Label, "/")
			want := Cell{
				Figure: set.figure, Label: c.Label,
				Backend: BackendWALBatched, Depth: 1, StepsPerInvoke: 1, Workers: 32,
				Duration: window, Seed: seed,
			}
			memory := func(shards int, groupCommit, flushBound bool) {
				want.Backend, want.Shards, want.GroupCommit = BackendMemory, shards, groupCommit
				if flushBound {
					want.Scale, want.Flush = scale, 300*time.Microsecond
				}
			}
			var n int
			fmt.Sscan(tail, &n) //nolint:errcheck // n stays 0 where the tail is not a number
			switch set.figure {
			case "shard":
				fmt.Sscan(head, &n) //nolint:errcheck // the label list above pins head to a number
				memory(n, tail == "batched", true)
			case "backend":
				want.Backend = BackendKind(head)
			case "remote":
				want.Wire = head != "inproc"
				want.RTT, _ = time.ParseDuration(head) // 0 for inproc
			case "pipeline":
				want.Depth, want.StepsPerInvoke = n, 16
				want.Wire = head == "remote"
				if want.Wire {
					want.RTT = 500 * time.Microsecond
				}
			case "latency":
				want.Backend, want.Workers = BackendKind(head), n
				want.Warmup, want.Telemetry = window/4, true
			}
			if head == "memory" {
				memory(1, set.figure == "pipeline", set.figure == "pipeline")
			}
			if c != want {
				t.Errorf("%s cell %s:\n got %+v\nwant %+v", set.figure, c.Label, c, want)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/grids.golden, testdata/costs.golden and BENCH_counts.json from this build")

// The flags cmd/figures runs every figure with by default.
const (
	figDuration = 3 * time.Second
	figScale    = 0.1
	figMinutes  = 30
	figMinute   = 300 * time.Millisecond
	figOps      = 60
)

var figRates = []float64{100, 200, 300, 400, 500, 600, 700, 800}

// figureSet is one figure's parameter sets, by cmd/figures' id ("trigger" is
// -fig latency's second table).
type figureSet struct {
	figure string
	sets   []any
}

func anys[P any](set []P) []any {
	out := make([]any, len(set))
	for i, p := range set {
		out[i] = p
	}
	return out
}

// figureSets is every figure's parameter sets as cmd/figures builds them from
// its default flags and the given seed. Costs takes no parameters.
func figureSets(seed int64) []figureSet {
	return []figureSet{
		{"13", anys(OpCells(20, figOps, seed))},
		{"14", anys(AppCurves("media", figRates, figDuration, figScale, seed))},
		{"15", anys(AppCurves("travel", figRates, figDuration, figScale, seed))},
		{"15b", anys(NoTxnCurves(figRates, figDuration, figScale, seed))},
		{"16", anys(GCLines(figMinutes, figMinute, figScale, seed))},
		{"25", anys(OpCells(5, figOps, seed))},
		{"26", anys(AppCurves("social", figRates, figDuration, figScale, seed))},
		{"ablation", anys(AblationDepths(seed))},
		{"queue", anys(QueueCells(figScale, seed))},
		{"orders", anys(AppCurves("orders", figRates, figDuration, figScale, seed))},
		{"shard", anys(ShardCells(figDuration, figScale, seed))},
		{"fanout", anys(FanoutCells(figDuration, figScale, seed))},
		{"backend", anys(BackendCells(figDuration, seed))},
		{"latency", anys(LatencyCells(figDuration, seed))},
		{"trigger", anys(TriggerCells(seed))},
		{"cluster", anys(ClusterCells(figDuration, figScale, seed))},
		{"remote", anys(RemoteCells(figDuration, seed))},
		{"pipeline", anys(PipelineCells(figDuration, figScale, seed))},
	}
}

// TestFigureGridsPinned pins every figure's grid as cmd/figures runs it by
// default: one line per parameter set, every field printed, in the order the
// figure measures them, so a dropped, reordered or re-parameterised set
// fails. testdata/grids.golden was checked against the option structs' values
// at the commit that replaced them; regenerate it only for a deliberate
// change: go test ./internal/bench -run FigureGridsPinned -update.
func TestFigureGridsPinned(t *testing.T) {
	var b strings.Builder
	for _, f := range figureSets(1) {
		for _, p := range f.sets {
			fmt.Fprintf(&b, "%s %+v\n", f.figure, p)
		}
	}
	const golden = "testdata/grids.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %q\nwant %q\n(%d sets, %d pinned)", golden, i+1,
				at(got, i), at(wantLines, i), len(got)-1, len(wantLines)-1)
		}
	}
}

// at is s[i], or "" past its end.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return ""
}

// TestSeedZeroIsASeed: every figure passes its seed through unchanged — 0
// included, which eight entry points once read as 1.
func TestSeedZeroIsASeed(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		for _, f := range figureSets(seed) {
			for _, p := range f.sets {
				if got := reflect.ValueOf(p).FieldByName("Seed").Int(); got != seed {
					t.Errorf("%s %s built with seed %d carries seed %d", f.figure, label(p), seed, got)
				}
			}
		}
	}
}

// TestClosedLoopStopsTheFailedWorker: an error from one worker is returned
// and ends that worker's loop at that call; the others go on calling, and the
// histogram holds exactly the calls that succeeded. The order is set by a
// channel, not by the window: workers 0 and 2 block in their first call until
// worker 1 has failed, then worker 0 makes one more call, and each stops by
// ending its goroutine (closedLoop's deferred Done still runs) without an
// error that could race boom.
func TestClosedLoopStopsTheFailedWorker(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	var calls [3]atomic.Int64
	var afterFailure, stops atomic.Int64
	lat, err := closedLoop(len(calls), time.Now().Add(time.Hour), func(w, i int) error {
		calls[w].Add(1)
		switch {
		case w == 1 && i < 2:
		case w == 1 && i == 2:
			close(failed)
			return boom
		case i == 0:
			<-failed
		case w == 0 && i == 1:
			afterFailure.Add(1)
		default:
			stops.Add(1)
			runtime.Goexit()
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls[1].Load(); n != 3 {
		t.Errorf("the failed worker made %d calls, want 3 (i = 0, 1, 2)", n)
	}
	if afterFailure.Load() != 1 {
		t.Error("a healthy worker made no call after the failure")
	}
	if ok := calls[0].Load() + calls[1].Load() + calls[2].Load() - 1 - stops.Load(); lat.Count() != ok {
		t.Errorf("histogram holds %d samples, %d calls succeeded", lat.Count(), ok)
	}
}

// TestWindowDropsWarmup: the measured histogram holds the calls made after
// the window opened and none of the warmup's — Point.Invokes is its count.
func TestWindowDropsWarmup(t *testing.T) {
	var calls, atOpen atomic.Int64
	c := Cell{Workers: 4, Warmup: 20 * time.Millisecond, Duration: 20 * time.Millisecond}
	lat, _, err := window(c, func() { atOpen.Store(calls.Load()) }, func(int, int) error {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if atOpen.Load() == 0 {
		t.Fatal("no warmup call was made before the window opened")
	}
	if measured := calls.Load() - atOpen.Load(); lat.Count() != measured || measured == 0 {
		t.Errorf("histogram holds %d samples, the window saw %d calls (after %d warmup calls)",
			lat.Count(), measured, atOpen.Load())
	}
}

// TestOpenSubstrateCloseLeavesNothing: after Close the WAL's temp directory
// is gone and the wire's listener refuses connections — also when the
// substrate failed half-way, at remote.Dial, and closed itself.
func TestOpenSubstrateCloseLeavesNothing(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	left := func() []os.DirEntry {
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	refused := func(addr string) {
		t.Helper()
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("listener %s still accepts connections", addr)
		}
	}
	cell := Cell{Backend: BackendWALEach, Wire: true, RTT: time.Millisecond}

	s, err := openSubstrate(cell)
	if err != nil {
		t.Fatal(err)
	}
	if s.wal == nil || s.client == nil || s.store != s.client || len(left()) != 1 {
		t.Fatalf("substrate not a WAL behind a wire: %+v, %d temp entries", s, len(left()))
	}
	addr := s.client.Addr()
	s.Close()
	if l := left(); len(l) != 0 {
		t.Errorf("Close left %v in the temp directory", l)
	}
	refused(addr)

	// Point the client at a port nobody listens on: the WAL and the server
	// are already up when Dial fails.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis.Close()
	defer func(dial func(string, remote.Options) (*remote.Client, error)) { dialWire = dial }(dialWire)
	dialWire = func(served string, o remote.Options) (*remote.Client, error) {
		addr = served
		return remote.Dial(lis.Addr().String(), o)
	}
	if s, err := openSubstrate(cell); err == nil {
		s.Close()
		t.Fatal("openSubstrate succeeded with its client dialing a closed port")
	}
	if l := left(); len(l) != 0 {
		t.Errorf("the failed open left %v in the temp directory", l)
	}
	refused(addr)
}

// TestRunCellRejectsMalformedCells: a cell that would run no load fails
// instead of reporting an empty point.
func TestRunCellRejectsMalformedCells(t *testing.T) {
	good := BackendCells(10*time.Millisecond, 1)[0]
	for name, mutate := range map[string]func(*Cell){
		"no workers":      func(c *Cell) { c.Workers = 0 },
		"no steps":        func(c *Cell) { c.StepsPerInvoke = 0 },
		"no shards":       func(c *Cell) { c.Shards = 0 },
		"unknown backend": func(c *Cell) { c.Backend = "tape" },
	} {
		c := good
		mutate(&c)
		if _, err := RunCell(c); err == nil {
			t.Errorf("%s: RunCell accepted %+v", name, c)
		}
	}
}
