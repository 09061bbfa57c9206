package remote

import (
	"net"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/raceflag"
	"repro/internal/storage"
)

// The per-RPC allocation budget: what one storage call costs end to end
// through a real loopback server over the in-memory store — client goroutine,
// the connection's read loop, the server goroutine that reads and runs the
// request and the backend together (process-wide mallocs, as
// testing.AllocsPerRun counts them). The wire's own share is nothing:
// encoders, frame bodies, decoders, attribute and table names, the reply
// channel and the deadline timer are all reused, and a request runs on the
// server goroutine that read it (each row was 1 higher while the server
// started a goroutine and its closure per request). What is left is what the
// call returns (rows: their maps, and one string arena per row holding its
// data strings) and what dynamo and the decode-then-rebuild of conditions
// allocate — both outside this package's reach (ROADMAP, "Smaller,
// ledger-bounded cuts"). Update actions decode straight into the values the
// store applies; the Update row was 10 while they were rebuilt as boxes. The
// Get row was 8 while each of its row's three data strings was its own
// allocation; Update decodes no row (its key, condition and actions are
// scalars outside any), and a projected Query row holds one data string, so
// neither moved. The store's share is one attribute map per row it returns
// and one attribute list per row it installs (internal/dynamo/alloc_test.go):
// it was 10, 11 and 4 while the store deep-copied rows and built a string
// per key lookup, and the Update row 8 and 2 while it kept each row in a Go
// map. ARCHITECTURE.md, "Remote storage plane", repeats the table; the slack
// of 1 is a pool emptied by a GC cycle.

// rpcBudget is the table: allocations per call, and how many of them the same
// call costs directly against the store.
var rpcBudget = []struct {
	name         string
	wire, direct float64
}{
	{"Update", 6, 1},
	{"Query (projected, 3 rows)", 19, 7},
	{"Get", 6, 2},
}

// budgetCalls returns the three budgeted calls, in rpcBudget's order, bound to b.
func budgetCalls(tb testing.TB, b storage.Backend) []func() {
	tb.Helper()
	if err := b.CreateTable(storage.Schema{Name: "t", HashKey: "K", SortKey: "S"}); err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		row := storage.Item{"K": dynamo.S("partition-1"), "S": dynamo.NInt(i), "V": dynamo.S("value"), "Owner": dynamo.S("owner-1"), "N": dynamo.NInt(0)}
		if err := b.Put("t", row, nil); err != nil {
			tb.Fatal(err)
		}
	}
	key := dynamo.HSK(dynamo.S("partition-1"), dynamo.NInt(1))
	cond := dynamo.Eq(dynamo.A("Owner"), dynamo.S("owner-1"))
	ups := []storage.Update{dynamo.Add(dynamo.A("N"), 1), dynamo.Set(dynamo.A("V"), dynamo.S("value"))}
	opts := storage.QueryOpts{Projection: []storage.Path{dynamo.A("S"), dynamo.A("V")}}
	return []func(){
		func() {
			if err := b.Update("t", key, cond, ups...); err != nil {
				tb.Fatal(err)
			}
		},
		func() {
			if rows, err := b.Query("t", dynamo.S("partition-1"), opts); err != nil || len(rows) != 3 {
				tb.Fatalf("Query = %d rows, %v", len(rows), err)
			}
		},
		func() {
			if it, ok, err := b.Get("t", key); err != nil || !ok || len(it) != 5 {
				tb.Fatalf("Get = %v %v %v", it, ok, err)
			}
		},
	}
}

// loopback serves a fresh in-memory store on a loopback listener and returns
// a one-connection client of it.
func loopback(tb testing.TB) *Client {
	tb.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(dynamo.NewStore(), ServeOptions{})
	go srv.Serve(lis)
	tb.Cleanup(func() { srv.Close() })
	c, err := Dial(lis.Addr().String(), Options{PoolSize: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

func TestRPCAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	wire, direct := budgetCalls(t, loopback(t)), budgetCalls(t, dynamo.NewStore())
	for i, row := range rpcBudget {
		if got := testing.AllocsPerRun(1000, direct[i]); got > row.direct+1 || got < row.direct-1 {
			t.Errorf("%s against the store: %.1f allocations, the table says %.0f", row.name, got, row.direct)
		}
		if got := testing.AllocsPerRun(1000, wire[i]); got > row.wire+1 {
			t.Errorf("%s over the wire: %.1f allocations, budget %.0f", row.name, got, row.wire)
		} else if got < row.wire-2 {
			t.Errorf("%s over the wire: %.1f allocations, well under its budget of %.0f: lower the table", row.name, got, row.wire)
		}
	}
}

func benchmarkRPC(b *testing.B, call int) {
	f := budgetCalls(b, loopback(b))[call]
	b.ReportAllocs()
	for b.Loop() {
		f()
	}
}

func BenchmarkRPCUpdate(b *testing.B) { benchmarkRPC(b, 0) }
func BenchmarkRPCQuery(b *testing.B)  { benchmarkRPC(b, 1) }
