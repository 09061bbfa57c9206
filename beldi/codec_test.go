package beldi_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/beldi"
	"repro/internal/raceflag"
)

// TestCodecNumbersExactOrRefused: numbers are float64, so the codec takes an
// integer only where it holds it exactly and hands one back only where the
// target kind holds it; everything else is an error naming the path, never a
// silently rounded, wrapped or truncated value.
func TestCodecNumbersExactOrRefused(t *testing.T) {
	type inner struct{ N int64 }
	type outer struct{ Inner inner }
	toCases := []struct {
		name string
		in   any
		want float64 // the stored number, when accepted
		err  string  // a substring of the error, when refused
	}{
		{"int64 2^53", int64(1 << 53), 1 << 53, ""},
		{"int64 -2^53", int64(-(1 << 53)), -(1 << 53), ""},
		{"int64 2^53+1", int64(1<<53 + 1), 0, "9007199254740993 is outside"},
		{"int64 -2^53-1", int64(-(1 << 53) - 1), 0, "outside ±2^53"},
		{"uint64 2^53", uint64(1 << 53), 1 << 53, ""},
		{"uint64 2^63", uint64(1 << 63), 0, "9223372036854775808 is outside"},
		{"int8", int8(-128), -128, ""},
		{"struct field", outer{inner{1<<53 + 1}}, 0, "ToValue: Inner.N: integer"},
		{"map entry", map[string]uint64{"k": 1 << 63}, 0, `ToValue: ["k"]: integer`},
		{"list element", []int64{1, 1 << 60}, 0, "ToValue: [1]: integer"},
	}
	for _, c := range toCases {
		v, err := beldi.ToValue(c.in)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("ToValue(%s): %v", c.name, err)
		case c.err == "" && v.Num() != c.want:
			t.Errorf("ToValue(%s) = %v, want %v", c.name, v.Num(), c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ToValue(%s) = %v, %v; want an error containing %q", c.name, v, err, c.err)
		}
	}

	type deep struct{ A struct{ B []int8 } }
	fromCases := []struct {
		name string
		in   beldi.Value
		out  any    // pointer to decode into
		want any    // *out after an accepted decode
		err  string // a substring of the error, when refused
	}{
		{"300 into int8", beldi.Int(300), new(int8), nil, "300 overflows int8"},
		{"127 into int8", beldi.Int(127), new(int8), int8(127), ""},
		{"-128 into int8", beldi.Int(-128), new(int8), int8(-128), ""},
		{"-1 into uint", beldi.Int(-1), new(uint), nil, "negative number -1 into unsigned uint"},
		{"256 into uint8", beldi.Int(256), new(uint8), nil, "overflows uint8"},
		{"255 into uint8", beldi.Int(255), new(uint8), uint8(255), ""},
		{"1.5 into int", beldi.Num(1.5), new(int), nil, "1.5 is not an integer"},
		{"NaN into int32", beldi.Num(math.NaN()), new(int32), nil, "is not an integer"},
		{"2^63 into int64", beldi.Num(1 << 63), new(int64), nil, "overflows int64"},
		{"-2^63 into int64", beldi.Num(-(1 << 63)), new(int64), int64(math.MinInt64), ""},
		{"2^64 into uint64", beldi.Num(1 << 64), new(uint64), nil, "overflows uint64"},
		{"+Inf into uint16", beldi.Num(math.Inf(1)), new(uint16), nil, "overflows uint16"},
		{"2.0 into uint32", beldi.Num(2), new(uint32), uint32(2), ""},
		{"field path", beldi.Map(map[string]beldi.Value{"A": beldi.Map(map[string]beldi.Value{
			"B": beldi.List(beldi.Int(1), beldi.Int(300))})}), new(deep), nil, "FromValue: A.B[1]: number 300 overflows int8"},
		{"map path", beldi.Map(map[string]beldi.Value{"x": beldi.Num(0.5)}), new(map[string]int), nil, `FromValue: ["x"]: number 0.5`},
	}
	for _, c := range fromCases {
		err := beldi.FromValue(c.in, c.out)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("FromValue(%s): %v", c.name, err)
		case c.err == "" && fmt.Sprint(deref(c.out)) != fmt.Sprint(c.want):
			t.Errorf("FromValue(%s) = %v, want %v", c.name, deref(c.out), c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("FromValue(%s) = %v, %v; want an error containing %q", c.name, deref(c.out), err, c.err)
		}
	}
}

// deref is what out points to.
func deref(out any) any { return reflect.ValueOf(out).Elem().Interface() }

// TestCodecDecodedEntriesAreIndependent: the decoder carries every map entry
// through one reused element, so no entry may keep a pointer, slice, map or
// field the previous entry decoded into it. Map order is random; the decode
// repeats so that each entry comes both before and after the others.
func TestCodecDecodedEntriesAreIndependent(t *testing.T) {
	type rec struct {
		M map[string]int
		P *int
		A [2]int
	}
	n := func(i int64) beldi.Value { return beldi.Int(i) }
	m := func(kv map[string]beldi.Value) beldi.Value { return beldi.Map(kv) }
	recs := m(map[string]beldi.Value{
		"a": m(map[string]beldi.Value{"M": m(map[string]beldi.Value{"x": n(1)}), "P": n(10), "A": beldi.List(n(1), n(2))}),
		"b": m(map[string]beldi.Value{"M": m(map[string]beldi.Value{"y": n(2)})}),
		"c": m(map[string]beldi.Value{"P": n(30), "A": beldi.List(n(5), n(6))}),
	})
	slices := m(map[string]beldi.Value{"a": beldi.List(n(1), n(2)), "b": beldi.List(n(3), n(4))})
	ptrs := m(map[string]beldi.Value{"a": n(1), "b": n(2), "c": beldi.Null})
	for round := 0; round < 20; round++ {
		var rs map[string]rec
		if err := beldi.FromValue(recs, &rs); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%v %v %v", rs["a"].M, rs["b"].M, rs["c"].M); got != "map[x:1] map[y:2] map[]" {
			t.Fatalf("maps %s", got)
		}
		if rs["a"].P == nil || *rs["a"].P != 10 || rs["b"].P != nil || rs["c"].P == nil || *rs["c"].P != 30 || rs["a"].P == rs["c"].P {
			t.Fatalf("pointers a=%v b=%v c=%v", rs["a"].P, rs["b"].P, rs["c"].P)
		}
		if rs["a"].A != [2]int{1, 2} || rs["b"].A != [2]int{} || rs["c"].A != [2]int{5, 6} {
			t.Fatalf("arrays %v %v %v", rs["a"].A, rs["b"].A, rs["c"].A)
		}
		rs["a"].M["x"] = 99
		*rs["a"].P = 99
		if rs["b"].M["y"] != 2 || len(rs["b"].M) != 1 || *rs["c"].P != 30 {
			t.Fatal("an entry shares a map or pointer with another")
		}

		var ss map[string][]int
		if err := beldi.FromValue(slices, &ss); err != nil {
			t.Fatal(err)
		}
		ss["a"][0] = 99
		if fmt.Sprint(ss["b"]) != "[3 4]" {
			t.Fatalf("slices share storage: %v", ss)
		}

		var ps map[string]*int
		if err := beldi.FromValue(ptrs, &ps); err != nil {
			t.Fatal(err)
		}
		if ps["a"] == ps["b"] || *ps["a"] != 1 || *ps["b"] != 2 || ps["c"] != nil {
			t.Fatalf("pointers %v %v %v", ps["a"], ps["b"], ps["c"])
		}
	}

	// The encoder's reused element: every entry encodes its own value.
	one, two := 1, 2
	v, err := beldi.ToValue(map[string]any{"p": &one, "q": &two, "s": []int{3}, "m": map[string]int{"z": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(v); got != fmt.Sprint(beldi.Map(map[string]beldi.Value{
		"p": n(1), "q": n(2), "s": beldi.List(n(3)), "m": m(map[string]beldi.Value{"z": n(4)})})) {
		t.Fatalf("encoded %s", got)
	}
}

var (
	codecSink any
	valueSink beldi.Value // unboxed: the field list is the map value's only allocation
)

// TestCodecMapAllocsDoNotGrow: converting a map[string]int64 allocates the
// map it builds and a constant beside it — the reused key and element, and
// the encoder's iterator — whatever the entry count.
func TestCodecMapAllocsDoNotGrow(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	overhead := func(n int) (enc, dec float64) {
		in := make(map[string]int64, n)
		for i := 0; i < n; i++ {
			in[fmt.Sprintf("w%03d", i)] = int64(i)
		}
		v, err := beldi.ToValue(in)
		if err != nil {
			t.Fatal(err)
		}
		// The maps themselves, built by hand: the map value's field list, and
		// the Go map it decodes into.
		encMap := testing.AllocsPerRun(100, func() {
			fs := make([]beldi.Field, 0, len(in))
			for k, x := range in {
				fs = append(fs, beldi.F(k, beldi.Int(x)))
			}
			valueSink = beldi.Fields(fs...)
		})
		decMap := testing.AllocsPerRun(100, func() {
			m := make(map[string]int64, len(in))
			for k, x := range v.Entries() {
				m[k] = x.Int()
			}
			codecSink = m
		})
		enc = testing.AllocsPerRun(100, func() { codecSink, _ = beldi.ToValue(in) }) - encMap
		out := new(map[string]int64)
		dec = testing.AllocsPerRun(100, func() {
			*out = nil
			if err := beldi.FromValue(v, out); err != nil {
				t.Fatal(err)
			}
		}) - decMap
		return enc, dec
	}
	enc32, dec32 := overhead(32)
	enc256, dec256 := overhead(256)
	if enc32 != 3 || enc256 != enc32 {
		t.Errorf("ToValue of a map: %.0f allocations beyond the map at 32 entries, %.0f at 256; want 3 at both (iterator, key, element)", enc32, enc256)
	}
	if dec32 != 2 || dec256 != dec32 {
		t.Errorf("FromValue of a map: %.0f allocations beyond the map at 32 entries, %.0f at 256; want 2 at both (key, element)", dec32, dec256)
	}
}
