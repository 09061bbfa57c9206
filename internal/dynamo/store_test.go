package dynamo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	s.MustCreateTable(Schema{Name: "kv", HashKey: "K"})
	s.MustCreateTable(Schema{Name: "daal", HashKey: "Key", SortKey: "RowId"})
	return s
}

func TestCreateTableValidation(t *testing.T) {
	s := NewStore()
	if err := s.CreateTable(Schema{Name: "", HashKey: "K"}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.CreateTable(Schema{Name: "t", HashKey: ""}); err == nil {
		t.Error("empty hash key accepted")
	}
	if err := s.CreateTable(Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(Schema{Name: "t", HashKey: "K"}); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newTestStore(t)
	item := Item{"K": S("a"), "V": N(42)}
	if err := s.Put("kv", item, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("kv", HK(S("a")))
	if err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if v := got["V"]; v.Num() != 42 {
		t.Errorf("V = %v", v)
	}
	// The returned item is a copy.
	got["V"] = N(0)
	again, _, _ := s.Get("kv", HK(S("a")))
	if again["V"].Num() != 42 {
		t.Error("mutation leaked into store")
	}
	if _, ok, _ := s.Get("kv", HK(S("zzz"))); ok {
		t.Error("found missing key")
	}
	if _, _, err := s.Get("nope", HK(S("a"))); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
}

func TestPutConditional(t *testing.T) {
	s := newTestStore(t)
	// Condition evaluated against the absent row.
	if err := s.Put("kv", Item{"K": S("a"), "V": N(1)}, NotExists(A("K"))); err != nil {
		t.Fatal(err)
	}
	err := s.Put("kv", Item{"K": S("a"), "V": N(2)}, NotExists(A("K")))
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("want condition failure, got %v", err)
	}
	got, _, _ := s.Get("kv", HK(S("a")))
	if got["V"].Num() != 1 {
		t.Error("failed put modified row")
	}
}

func TestUpdateUpsertAndCondition(t *testing.T) {
	s := newTestStore(t)
	// Upsert creates the row with key attributes.
	if err := s.Update("kv", HK(S("a")), nil, Set(A("V"), N(1))); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get("kv", HK(S("a")))
	if !ok || got["K"].Str() != "a" || got["V"].Num() != 1 {
		t.Fatalf("upsert produced %v", got)
	}
	// Conditional update success and failure.
	if err := s.Update("kv", HK(S("a")), Eq(A("V"), N(1)), Set(A("V"), N(2))); err != nil {
		t.Fatal(err)
	}
	err := s.Update("kv", HK(S("a")), Eq(A("V"), N(1)), Set(A("V"), N(3)))
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("want condition failure, got %v", err)
	}
	got, _, _ = s.Get("kv", HK(S("a")))
	if got["V"].Num() != 2 {
		t.Errorf("V = %v after failed update", got["V"])
	}
}

func TestUpdateAtomicMultiAction(t *testing.T) {
	s := newTestStore(t)
	// The Beldi write shape: set value, bump log size, add log entry — all
	// atomic with the condition. Rows are created with LogSize present (as
	// Beldi's appendRow does) because missing attributes fail comparisons.
	mustPut(t, s, "daal", Item{"Key": S("k"), "RowId": S("HEAD"), "LogSize": N(0)})
	err := s.Update("daal", HSK(S("k"), S("HEAD")),
		And(NotExists(AK("RecentWrites", "i1.0")), Lt(A("LogSize"), N(4))),
		Set(A("Value"), S("v1")),
		Add(A("LogSize"), 1),
		Set(AK("RecentWrites", "i1.0"), Null),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get("daal", HSK(S("k"), S("HEAD")))
	if got["LogSize"].Num() != 1 {
		t.Errorf("LogSize = %v", got["LogSize"])
	}
	if _, ok := got.Get(AK("RecentWrites", "i1.0")); !ok {
		t.Error("log entry missing")
	}
	// Same logKey again: condition must fail (at-most-once).
	err = s.Update("daal", HSK(S("k"), S("HEAD")),
		And(NotExists(AK("RecentWrites", "i1.0")), Lt(A("LogSize"), N(4))),
		Set(A("Value"), S("v2")),
	)
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("replay not rejected: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore(t)
	mustPut(t, s, "kv", Item{"K": S("a"), "V": N(1)})
	if err := s.Delete("kv", HK(S("a")), Eq(A("V"), N(2))); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("conditional delete: %v", err)
	}
	if err := s.Delete("kv", HK(S("a")), Eq(A("V"), N(1))); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("kv", HK(S("a"))); ok {
		t.Error("row survived delete")
	}
	// Deleting a missing row is a no-op.
	if err := s.Delete("kv", HK(S("a")), nil); err != nil {
		t.Errorf("delete missing: %v", err)
	}
}

func TestItemSizeCap(t *testing.T) {
	s := NewStore()
	s.MustCreateTable(Schema{Name: "small", HashKey: "K", MaxItemSize: 64})
	big := Item{"K": S("a"), "V": S(string(make([]byte, 100)))}
	if err := s.Put("small", big, nil); !errors.Is(err, ErrItemTooLarge) {
		t.Fatalf("oversized put: %v", err)
	}
	mustPut(t, s, "small", Item{"K": S("a"), "V": S("ok")})
	err := s.Update("small", HK(S("a")), nil, Set(A("V"), S(string(make([]byte, 100)))))
	if !errors.Is(err, ErrItemTooLarge) {
		t.Fatalf("oversized update: %v", err)
	}
	// Row unchanged after failed update.
	got, _, _ := s.Get("small", HK(S("a")))
	if got["V"].Str() != "ok" {
		t.Error("failed update mutated row")
	}
}

// TestUpdateKeepsTheKey: a row's key attributes are its key — the store
// orders a partition by the sort attribute in place — so, as on DynamoDB, an
// update that changes or removes one is refused and leaves the row as it
// was; one that sets a key attribute to the value it has is no change.
func TestUpdateKeepsTheKey(t *testing.T) {
	s := newTestStore(t)
	for _, r := range []string{"r0", "r1", "r2"} {
		mustPut(t, s, "daal", Item{"Key": S("k"), "RowId": S(r), "Value": N(1)})
	}
	key := HSK(S("k"), S("r1"))
	for _, u := range []Update{Set(A("RowId"), S("r9")), Remove(A("RowId")), Set(A("Key"), S("other")), Remove(A("Key")), Add(A("RowId"), 1)} {
		if err := s.Update("daal", key, nil, u); err == nil {
			t.Errorf("%s on a key attribute: accepted", u)
		}
		if err := s.TransactWrite([]TxOp{{Table: "daal", Key: key, Updates: []Update{u}}}); err == nil {
			t.Errorf("%s on a key attribute in a transaction: accepted", u)
		}
	}
	if err := s.Update("daal", HSK(S("k"), S("r5")), nil, Set(A("RowId"), S("r6"))); err == nil {
		t.Error("an upsert that changes its sort attribute: accepted")
	}
	if err := s.Update("daal", key, nil, Set(A("RowId"), S("r1")), Add(A("Value"), 1)); err != nil {
		t.Errorf("setting the sort attribute to its own value: %v", err)
	}
	items, err := s.Query("daal", S("k"), QueryOpts{})
	if err != nil || len(items) != 3 {
		t.Fatalf("query after refused updates: %v, %v", items, err)
	}
	for i, it := range items {
		if want := fmt.Sprintf("r%d", i); it["RowId"].Str() != want {
			t.Errorf("row %d = %v, want RowId %s", i, it, want)
		}
	}
	if got, ok, _ := s.Get("daal", key); !ok || got["Value"].Num() != 2 {
		t.Errorf("row r1 = %v, %v after its update", got, ok)
	}
}

func TestQueryOrderingAndProjection(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 5; i++ {
		mustPut(t, s, "daal", Item{
			"Key":   S("k"),
			"RowId": S(fmt.Sprintf("r%d", i)),
			"Value": N(float64(i)),
			"Extra": S("payload-that-should-be-projected-away"),
		})
	}
	mustPut(t, s, "daal", Item{"Key": S("other"), "RowId": S("r0"), "Value": N(99)})

	items, err := s.Query("daal", S("k"), QueryOpts{Projection: []Path{A("RowId")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("got %d rows", len(items))
	}
	for i, it := range items {
		if want := fmt.Sprintf("r%d", i); it["RowId"].Str() != want {
			t.Errorf("row %d = %v, want RowId %s", i, it, want)
		}
		if _, ok := it["Extra"]; ok {
			t.Error("projection leaked Extra")
		}
		if _, ok := it["Value"]; ok {
			t.Error("projection leaked Value")
		}
	}

	desc, _ := s.Query("daal", S("k"), QueryOpts{Descending: true, Limit: 2})
	if len(desc) != 2 || desc[0]["RowId"].Str() != "r4" {
		t.Errorf("descending limit: %v", desc)
	}

	filtered, _ := s.Query("daal", S("k"), QueryOpts{Filter: Ge(A("Value"), N(3))})
	if len(filtered) != 2 {
		t.Errorf("filter: %d rows", len(filtered))
	}
}

func TestQueryNumericSortOrder(t *testing.T) {
	s := NewStore()
	s.MustCreateTable(Schema{Name: "n", HashKey: "H", SortKey: "S"})
	for _, v := range []float64{10, 2, 33, 1} {
		mustPut(t, s, "n", Item{"H": S("h"), "S": N(v)})
	}
	items, _ := s.Query("n", S("h"), QueryOpts{})
	var got []float64
	for _, it := range items {
		got = append(got, it["S"].Num())
	}
	want := []float64{1, 2, 10, 33}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestMapEntryProjection(t *testing.T) {
	s := newTestStore(t)
	mustPut(t, s, "daal", Item{
		"Key":   S("k"),
		"RowId": S("HEAD"),
		"RecentWrites": M(map[string]Value{
			"i1.0": Bool(true),
			"i2.0": Bool(false),
		}),
	})
	items, err := s.Query("daal", S("k"), QueryOpts{
		Projection: []Path{A("RowId"), AK("RecentWrites", "i1.0")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("%d rows", len(items))
	}
	if v, ok := items[0].Get(AK("RecentWrites", "i1.0")); !ok || !v.BoolVal() {
		t.Errorf("projected entry = %v %v", v, ok)
	}
	if _, ok := items[0].Get(AK("RecentWrites", "i2.0")); ok {
		t.Error("unprojected map entry leaked")
	}
}

func TestScanDeterministicSnapshot(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 10; i++ {
		mustPut(t, s, "kv", Item{"K": S(fmt.Sprintf("k%02d", i)), "V": N(float64(i))})
	}
	a, err := s.Scan("kv", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Scan("kv", QueryOpts{})
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("scan sizes %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i]["K"].Str() != b[i]["K"].Str() {
			t.Fatal("scan order nondeterministic")
		}
	}
}

func TestSecondaryIndexQuery(t *testing.T) {
	s := NewStore()
	s.MustCreateTable(Schema{
		Name: "intent", HashKey: "InstanceId",
		Indexes: []IndexSchema{{Name: "by-done", HashKey: "DoneFlag", SortKey: "Ts"}},
	})
	for i := 0; i < 6; i++ {
		done := "yes"
		if i%2 == 0 {
			done = "no"
		}
		mustPut(t, s, "intent", Item{
			"InstanceId": S(fmt.Sprintf("i%d", i)),
			"DoneFlag":   S(done),
			"Ts":         N(float64(100 - i)),
		})
	}
	// One row lacks the index attribute entirely: sparse index behaviour.
	mustPut(t, s, "intent", Item{"InstanceId": S("bare")})

	unfinished, err := s.QueryIndex("intent", "by-done", S("no"), QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(unfinished) != 3 {
		t.Fatalf("%d unfinished, want 3", len(unfinished))
	}
	// Ordered by Ts ascending: i4 (96), i2 (98), i0 (100).
	if unfinished[0]["InstanceId"].Str() != "i4" {
		t.Errorf("first = %v", unfinished[0])
	}
	if _, err := s.QueryIndex("intent", "nope", S("no"), QueryOpts{}); !errors.Is(err, ErrNoSuchIndex) {
		t.Errorf("missing index: %v", err)
	}
}

func TestTableAccounting(t *testing.T) {
	s := newTestStore(t)
	mustPut(t, s, "kv", Item{"K": S("a"), "V": S("0123456789")})
	n, err := s.TableBytes("kv")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1+1+1+10 {
		t.Errorf("TableBytes = %d", n)
	}
	c, _ := s.TableItemCount("kv")
	if c != 1 {
		t.Errorf("count = %d", c)
	}
	names := s.TableNames()
	if len(names) != 2 || names[0] != "daal" || names[1] != "kv" {
		t.Errorf("names = %v", names)
	}
}

func TestMetricsCounting(t *testing.T) {
	s := newTestStore(t)
	before := s.Metrics().Snapshot()
	mustPut(t, s, "kv", Item{"K": S("a"), "V": N(1)})
	s.Get("kv", HK(S("a")))
	s.Update("kv", HK(S("a")), Eq(A("V"), N(99)), Set(A("V"), N(2))) // fails
	after := s.Metrics().Snapshot().Sub(before)
	if after.Ops["put"] != 1 || after.Ops["get"] != 1 || after.Ops["update"] != 1 {
		t.Errorf("ops = %v", after.Ops)
	}
	if after.CondFailures != 1 {
		t.Errorf("cond failures = %d", after.CondFailures)
	}
	if after.BytesRead <= 0 || after.BytesWritten <= 0 {
		t.Errorf("bytes: read=%d written=%d", after.BytesRead, after.BytesWritten)
	}
}

func TestConcurrentConditionalCounter(t *testing.T) {
	// 50 goroutines race conditional increments; exactly one per round may
	// win. Total must equal rounds — the atomicity Beldi's at-most-once
	// guarantee is built on.
	s := newTestStore(t)
	mustPut(t, s, "kv", Item{"K": S("ctr"), "V": N(0)})
	const rounds, workers = 30, 10
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wins := make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := s.Update("kv", HK(S("ctr")),
					Eq(A("V"), N(float64(r))),
					Set(A("V"), N(float64(r+1))))
				if err == nil {
					wins <- struct{}{}
				} else if !errors.Is(err, ErrConditionFailed) {
					t.Errorf("unexpected error: %v", err)
				}
			}()
		}
		wg.Wait()
		close(wins)
		n := 0
		for range wins {
			n++
		}
		if n != 1 {
			t.Fatalf("round %d: %d winners", r, n)
		}
	}
	got, _, _ := s.Get("kv", HK(S("ctr")))
	if got["V"].Num() != rounds {
		t.Errorf("final = %v, want %d", got["V"], rounds)
	}
}

func mustPut(t *testing.T, s *Store, table string, it Item) {
	t.Helper()
	if err := s.Put(table, it, nil); err != nil {
		t.Fatalf("put %s %v: %v", table, it, err)
	}
}
