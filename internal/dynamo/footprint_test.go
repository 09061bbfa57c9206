package dynamo

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/raceflag"
)

// The store's footprint budget: the heap one row keeps alive once installed,
// for the three shapes Beldi's logs leave in a store until the collector
// recycles them. A row's attributes, and a map value's entries, are a sorted
// field list of 56 bytes per entry; a Go map costs 608 bytes for one to eight
// entries and 2 376 for sixteen. With Go maps the same rows kept the
// "parent" column alive, which the test fails against. OPERATIONS.md
// ("Sizing memory for the memtable") and EXPERIMENTS.md ("Stored data
// footprint") use these numbers.

// footprintRows is how many rows of a shape are installed and measured
// together, so that what else the process holds is noise below a byte a row.
const footprintRows = 4096

// retainedPerRow installs footprintRows rows that row builds into a new store
// and returns the live heap they added, per row: everything built for them
// that the store keeps — attribute lists, nested values, strings, rows,
// partitions — and nothing the caller dropped.
func retainedPerRow(t *testing.T, schema Schema, row func(i int) Item) float64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := NewStore()
	s.MustCreateTable(schema)
	for i := 0; i < footprintRows; i++ {
		if err := s.Put(schema.Name, row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(s)
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / footprintRows
}

func TestRetainedBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("footprint budgets are meaningless under the race detector")
	}
	const slack = 0.05
	for _, c := range []struct {
		name   string
		schema Schema
		row    func(i int) Item
		want   float64 // bytes per row
		parent float64 // the same rows while rows and map values were Go maps
	}{
		{"intent row: 7 attributes, Args an envelope holding a 2-entry input",
			Schema{Name: "intent", HashKey: "InstanceId"},
			func(i int) Item {
				id := fmt.Sprintf("instance-%08d", i)
				args := M(map[string]Value{
					"Kind":           S("call"),
					"InstanceId":     S(id),
					"CallerFn":       S("travel-frontend"),
					"CallerInstance": S(fmt.Sprintf("caller-%08d", i)),
					"CallerStep":     S("3"),
					"Input":          M(map[string]Value{"op": S("search"), "lat": N(float64(i))}),
				})
				return Item{"InstanceId": S(id), "Done": Bool(false), "Pending": S("1"), "Args": args,
					"Async": Bool(false), "StartTime": NInt(int64(i)), "LastLaunch": NInt(int64(i))}
			},
			1080, 2097},
		{"log row: 4 attributes",
			Schema{Name: "invokelog", HashKey: "Id", SortKey: "Step"},
			func(i int) Item {
				return Item{"Id": S(fmt.Sprintf("instance-%08d", i)), "Step": S("3"),
					"CalleeId": S(fmt.Sprintf("callee-%08d", i)), "Result": NInt(int64(i))}
			},
			424, 856},
		{"DAAL row: 6 attributes, a 16-entry write log",
			Schema{Name: "daal", HashKey: "Key", SortKey: "RowId"},
			func(i int) Item {
				log := make(map[string]Value, 16)
				for j := 0; j < 16; j++ {
					log[fmt.Sprintf("instance-%08d#0.%d", i, j)] = Bool(true)
				}
				return Item{"Key": S(fmt.Sprintf("item-%08d", i)), "RowId": S("r00000000"), "Value": NInt(int64(i)),
					"LogSize": NInt(16), "NextRow": S("r00000001"), "RecentWrites": M(log)}
			},
			1936, 3608},
	} {
		got := retainedPerRow(t, c.schema, c.row)
		t.Logf("%s: %.0f bytes retained per row (%.0f with Go maps)", c.name, got, c.parent)
		if got > c.want*(1+slack) || got < c.want*(1-slack) {
			t.Errorf("%s: %.0f bytes retained per row, want %.0f ± %.0f%%", c.name, got, c.want, 100*slack)
		}
	}
}

// layoutSink makes the values TestValueLayout builds escape, as a stored
// value does.
var layoutSink Value

// TestValueLayout pins the data model's sizes and what building a value
// costs. A Value is 40 bytes — one scalar, one string, one reference whose
// dynamic type is the kind — so a field is 56, a key or an update action 80,
// and a stored row, which points at its own sort value instead of copying it
// and keeps no fingerprint, 32. No constructor allocates: a kind is a boxed
// one-byte constant, and a list, byte slice or map is a pointer to its first
// element (48, 64, 96, 88 and 80 bytes, and 1 allocation for L and Bytes,
// while the kind was a field and lists and byte slices were boxed).
func TestValueLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Value", unsafe.Sizeof(Value{}), 40},
		{"Field", unsafe.Sizeof(Field{}), 56},
		{"row", unsafe.Sizeof(row{}), 32},
		{"Key", unsafe.Sizeof(Key{}), 80},
		{"Update", unsafe.Sizeof(Update{}), 80},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", c.name, c.got, c.want)
		}
	}
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	list := []Value{S("a"), N(1)}
	bytes := []byte("payload")
	fields := []Field{F("a", Null), F("b", Bool(true))}
	for _, c := range []struct {
		name  string
		build func() Value
	}{
		{"S", func() Value { return S("s") }},
		{"N", func() Value { return N(1.5) }},
		{"NInt", func() Value { return NInt(7) }},
		{"Bool", func() Value { return Bool(true) }},
		{"L", func() Value { return L(list...) }},
		{"Bytes", func() Value { return Bytes(bytes) }},
		{"Fields", func() Value { return Fields(fields...) }},
	} {
		if got := testing.AllocsPerRun(100, func() { layoutSink = c.build() }); got != 0 {
			t.Errorf("%s: %.0f allocations, want 0", c.name, got)
		}
	}
}
