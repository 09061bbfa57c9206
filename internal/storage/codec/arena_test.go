package codec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dynamo"
	"repro/internal/raceflag"
)

// The retention unit of the string arenas (package comment, "Data strings"):
// a row's data strings share one allocation, a list or map value decoded
// outside a row has one of its own, and nothing else does.

// contiguous reports whether ss lie back to back, in order, in one byte
// array: each starts where the one before it ends.
func contiguous(ss ...string) bool {
	for i := 1; i < len(ss); i++ {
		if unsafe.StringData(ss[i]) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(ss[i-1])), len(ss[i-1]))) {
			return false
		}
	}
	return true
}

// end is the address just past s.
func end(s string) *byte { return (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(s)), len(s))) }

// arenaRow has four data strings, in the order Item decodes them: two string
// values, then a map value's key and string value (its byte value and number
// are not data strings). Each is 17 to 21 bytes long, so strings of their own
// would each be a size class of 24 bytes, not back to back; a row's 78 bytes
// of strings are no size class either, so two rows' arenas are never back to
// back.
func arenaRow(i int) (dynamo.Item, []string) {
	strs := []string{
		fmt.Sprintf("partition-%07d", i),   // K: 17 bytes
		fmt.Sprintf("sort-key-%010d", i),   // S: 19 bytes
		fmt.Sprintf("step-key-%012d", i),   // V's key: 21 bytes
		fmt.Sprintf("step-value-%010d", i), // its value: 21 bytes
	}
	return dynamo.Item{
		"B": dynamo.Bytes([]byte("not a string, copied on its own")),
		"K": dynamo.S(strs[0]),
		"N": dynamo.NInt(int64(i)),
		"S": dynamo.S(strs[1]),
		"V": dynamo.M(map[string]dynamo.Value{strs[2]: dynamo.S(strs[3])}),
	}, strs
}

// rowStrings returns a decoded arenaRow's data strings in decode order.
func rowStrings(it dynamo.Item) []string {
	strs := []string{it["K"].Str(), it["S"].Str()}
	for k, v := range it["V"].Entries() {
		strs = append(strs, k, v.Str())
	}
	return strs
}

func TestArenaIsOneRow(t *testing.T) {
	var rows []dynamo.Item
	for i := 0; i < 3; i++ {
		it, _ := arenaRow(i)
		rows = append(rows, it)
	}
	e := NewEncoder(64)
	e.Items(rows)
	m := dynamo.M(map[string]dynamo.Value{"map-key-0000000001": dynamo.S("map-value-000000001"), "map-key-0000000002": dynamo.S("map-value-000000002")})
	e.Value(m)
	e.Value(dynamo.S("a-scalar-string-value"))
	body := e.Body()

	d := NewDecoder(body)
	got, gotMap, gotScalar := d.Items(), d.Value(), d.Value()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	var ends []*byte
	for i, it := range got {
		_, want := arenaRow(i)
		strs := rowStrings(it)
		if strings.Join(strs, " ") != strings.Join(want, " ") {
			t.Fatalf("row %d decoded to %v", i, it)
		}
		if !contiguous(strs...) {
			t.Errorf("row %d: its data strings are not one array", i)
		}
		for _, e := range ends {
			if unsafe.StringData(strs[0]) == e {
				t.Errorf("row %d: its arena continues an earlier row's", i)
			}
		}
		ends = append(ends, end(strs[len(strs)-1]))
	}
	var mapStrs []string
	for k, v := range gotMap.Entries() {
		mapStrs = append(mapStrs, k, v.Str())
	}
	if !gotMap.Equal(m) || !contiguous(mapStrs...) {
		t.Errorf("a map value outside a row: %v, its strings one array: %v", gotMap, contiguous(mapStrs...))
	}
	if s := gotScalar.Str(); s != "a-scalar-string-value" || contiguous(mapStrs[len(mapStrs)-1], s) {
		t.Errorf("a scalar string value %q is in the map value's arena", s)
	}

	// The checks have teeth: without arenas, a row's strings are apart.
	WithoutArenas(func() {
		if contiguous(rowStrings(NewDecoder(body).Items()[0])...) {
			t.Error("without arenas a row's data strings are one array too; the layout checks above prove nothing")
		}
	})

	// And a scalar string outside any scope is one allocation, of its own.
	e.Reset()
	e.Value(dynamo.S("a-scalar-string-value"))
	scalar := e.Body()
	if n := allocsPerRun(t, func() {
		d := Decoder{b: scalar}
		gotScalar = d.Value()
	}); n != 1 {
		t.Errorf("decoding a scalar string value: %v allocations, want 1", n)
	}
}

// retainedPerRow is dynamo's TestRetainedBytes measure for decoded rows:
// footprintRows rows that row builds are encoded, decoded and installed in a
// new store, and the live heap they add is returned per row.
func retainedPerRow(t *testing.T, schema dynamo.Schema, row func(i int) dynamo.Item) float64 {
	t.Helper()
	const footprintRows = 4096
	e := NewEncoder(4096)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := dynamo.NewStore()
	s.MustCreateTable(schema)
	for i := 0; i < footprintRows; i++ {
		e.Reset()
		e.Item(row(i))
		d := NewDecoder(e.Body())
		it := d.Item()
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(schema.Name, it, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(s)
	runtime.KeepAlive(e)
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / footprintRows
}

// TestArenaRetainsNoMore decodes the three row shapes of dynamo's
// TestRetainedBytes from their encoding and installs them, with arenas and
// without: with them, each keeps no more heap per row than with every data
// string a string of its own. The arena holds a row's data strings and
// nothing else, and every one of them is retained with the row, so what it
// can cost is its size class's rounding, once per row instead of once per
// string. (A decoded intent row keeps ~100 bytes more than the same row built
// directly, arenas or not: built, its map keys and constant values are string
// literals, which live outside the heap.)
func TestArenaRetainsNoMore(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("footprint budgets are meaningless under the race detector")
	}
	const slack = 0.05
	for _, c := range []struct {
		name   string
		schema dynamo.Schema
		row    func(i int) dynamo.Item
		direct float64 // bytes per row built directly (dynamo.TestRetainedBytes), logged
	}{
		{"intent row: 7 attributes, Args an envelope holding a 2-entry input",
			dynamo.Schema{Name: "intent", HashKey: "InstanceId"},
			func(i int) dynamo.Item {
				id := fmt.Sprintf("instance-%08d", i)
				args := dynamo.M(map[string]dynamo.Value{
					"Kind":           dynamo.S("call"),
					"InstanceId":     dynamo.S(id),
					"CallerFn":       dynamo.S("travel-frontend"),
					"CallerInstance": dynamo.S(fmt.Sprintf("caller-%08d", i)),
					"CallerStep":     dynamo.S("3"),
					"Input":          dynamo.M(map[string]dynamo.Value{"op": dynamo.S("search"), "lat": dynamo.N(float64(i))}),
				})
				return dynamo.Item{"InstanceId": dynamo.S(id), "Done": dynamo.Bool(false), "Pending": dynamo.S("1"), "Args": args,
					"Async": dynamo.Bool(false), "StartTime": dynamo.NInt(int64(i)), "LastLaunch": dynamo.NInt(int64(i))}
			},
			1080},
		{"log row: 4 attributes",
			dynamo.Schema{Name: "invokelog", HashKey: "Id", SortKey: "Step"},
			func(i int) dynamo.Item {
				return dynamo.Item{"Id": dynamo.S(fmt.Sprintf("instance-%08d", i)), "Step": dynamo.S("3"),
					"CalleeId": dynamo.S(fmt.Sprintf("callee-%08d", i)), "Result": dynamo.NInt(int64(i))}
			},
			424},
		{"DAAL row: 6 attributes, a 16-entry write log",
			dynamo.Schema{Name: "daal", HashKey: "Key", SortKey: "RowId"},
			func(i int) dynamo.Item {
				log := make(map[string]dynamo.Value, 16)
				for j := 0; j < 16; j++ {
					log[fmt.Sprintf("instance-%08d#0.%d", i, j)] = dynamo.Bool(true)
				}
				return dynamo.Item{"Key": dynamo.S(fmt.Sprintf("item-%08d", i)), "RowId": dynamo.S("r00000000"), "Value": dynamo.NInt(int64(i)),
					"LogSize": dynamo.NInt(16), "NextRow": dynamo.S("r00000001"), "RecentWrites": dynamo.M(log)}
			},
			1936},
	} {
		var own float64
		WithoutArenas(func() { own = retainedPerRow(t, c.schema, c.row) })
		got := retainedPerRow(t, c.schema, c.row)
		t.Logf("%s: %.0f bytes retained per decoded row, %.0f with strings of their own, %.0f built directly", c.name, got, own, c.direct)
		if got > own*(1+slack) {
			t.Errorf("%s: %.0f bytes retained per decoded row, more than the %.0f + %.0f%% of the same rows with strings of their own", c.name, got, own, 100*slack)
		}
	}
}
