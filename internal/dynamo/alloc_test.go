package dynamo

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/raceflag"
)

// The store-side allocation budget: what one operation costs against the
// in-memory store, in the idiom of internal/remote/alloc_test.go (whose
// "direct" column these numbers explain). The store converts one level at its
// boundary — a row it installs becomes a sorted attribute list of its own, a
// row it returns a new Item — and shares every value, so an operation
// allocates the lists and maps it keeps or hands out and nothing for the key,
// the critical section or the values. ARCHITECTURE.md, "Storage backends",
// repeats the table.

// budgetFixture is a store holding one DAAL-shaped partition: 3 rows of 6
// attributes, each with a 16-entry write-log map.
func budgetFixture(tb testing.TB) (*Store, Key) {
	tb.Helper()
	s := NewStore()
	s.MustCreateTable(Schema{Name: "t", HashKey: "Key", SortKey: "RowId"})
	for r := 0; r < 3; r++ {
		log := make(map[string]Value, 16)
		for i := 0; i < 16; i++ {
			log[fmt.Sprintf("instance-%02d#0.%d", i, r)] = Bool(true)
		}
		row := Item{"Key": S("item-1"), "RowId": S(fmt.Sprintf("row-%d", r)), "Value": S("value"),
			"LogSize": NInt(16), "NextRow": S("next"), "RecentWrites": M(log)}
		if err := s.Put("t", row, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return s, HSK(S("item-1"), S("row-1"))
}

// storeCalls are the budgeted operations, bound to a fixture.
func storeCalls(tb testing.TB) (get, query, update, putDelete func()) {
	s, key := budgetFixture(tb)
	get = func() {
		if it, ok, err := s.Get("t", key); err != nil || !ok || len(it) != 6 {
			tb.Fatalf("Get = %v %v %v", it, ok, err)
		}
	}
	opts := QueryOpts{Projection: []Path{A("RowId"), A("NextRow")}}
	query = func() {
		if rows, err := s.Query("t", S("item-1"), opts); err != nil || len(rows) != 3 {
			tb.Fatalf("Query = %d rows, %v", len(rows), err)
		}
	}
	cond := Eq(A("NextRow"), S("next"))
	ups := []Update{Set(AK("RecentWrites", "instance-16#0.1"), Bool(true)), Add(A("LogSize"), 1)}
	update = func() {
		if err := s.Update("t", key, cond, ups...); err != nil {
			tb.Fatal(err)
		}
	}
	fresh := Item{"Key": S("item-2"), "RowId": S("row-0"), "Value": S("value")}
	freshKey, absent := HSK(S("item-2"), S("row-0")), NotExists(A("Key"))
	putDelete = func() {
		if err := s.Put("t", fresh, absent); err != nil {
			tb.Fatal(err)
		}
		if err := s.Delete("t", freshKey, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return get, query, update, putDelete
}

func TestStoreAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	s, key := budgetFixture(t)
	tab, _ := s.table("t")
	if got := testing.AllocsPerRun(1000, func() {
		sh := tab.shardOf(key)
		sh.mu.RLock()
		it := sh.get(key)
		sh.mu.RUnlock()
		if it == nil {
			t.Fatal("row not found")
		}
	}); got != 0 {
		t.Errorf("looking a row up by key: %.0f allocations, want 0 (nothing is built from the key)", got)
	}

	row, _, _ := s.Get("t", key)
	attrMap := testing.AllocsPerRun(1000, func() { maps.Clone(row) })
	get, query, update, putDelete := storeCalls(t)
	for _, c := range []struct {
		name string
		call func()
		want float64
		why  string
	}{
		{"Get of a 6-attribute row holding a 16-entry map", get, attrMap, "its attribute map and nothing else"},
		{"Query projecting 2 attributes of 3 rows", query, 3*attrMap + 1, "a map per row and the result slice, sized once"},
		{"Update appending to a 16-entry log map", update, 2, "the row's attribute list and the log's field list, each built once at its final size"},
		{"guarded Put of a new row, and its Delete", putDelete, 4, "the stored attribute list, the partition, its row and row slice"},
	} {
		if got := testing.AllocsPerRun(1000, c.call); got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f (%s)", c.name, got, c.want, c.why)
		}
	}
}

func BenchmarkStoreUpdateLog(b *testing.B) {
	_, _, update, _ := storeCalls(b)
	b.ReportAllocs()
	for b.Loop() {
		update()
	}
}

func BenchmarkStoreQueryProjected(b *testing.B) {
	_, query, _, _ := storeCalls(b)
	b.ReportAllocs()
	for b.Loop() {
		query()
	}
}
