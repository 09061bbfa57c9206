package dynamo

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{S("x"), KindString},
		{N(1.5), KindNumber},
		{NInt(7), KindNumber},
		{Bool(true), KindBool},
		{Bytes([]byte("ab")), KindBytes},
		{L(S("a")), KindList},
		{M(map[string]Value{"k": N(1)}), KindMap},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := S("hello").Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := N(2.5).Num(); got != 2.5 {
		t.Errorf("Num = %v", got)
	}
	if got := NInt(41).Int(); got != 41 {
		t.Errorf("Int = %v", got)
	}
	if !Bool(true).BoolVal() {
		t.Error("BoolVal = false")
	}
	if got := string(Bytes([]byte("zz")).BytesVal()); got != "zz" {
		t.Errorf("BytesVal = %q", got)
	}
	if Null.IsNull() != true || S("").IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestValueMapGet(t *testing.T) {
	m := M(map[string]Value{"a": N(1)})
	if v, ok := m.MapGet("a"); !ok || v.Num() != 1 {
		t.Errorf("MapGet(a) = %v, %v", v, ok)
	}
	if _, ok := m.MapGet("b"); ok {
		t.Error("MapGet(b) found missing key")
	}
	if _, ok := S("x").MapGet("a"); ok {
		t.Error("MapGet on string succeeded")
	}
}

func TestValueEqual(t *testing.T) {
	eq := []struct{ a, b Value }{
		{Null, Null},
		{S("x"), S("x")},
		{N(1), NInt(1)},
		{Bool(false), Bool(false)},
		{Bytes([]byte("a")), Bytes([]byte("a"))},
		{L(N(1), S("a")), L(N(1), S("a"))},
		{M(map[string]Value{"k": L(N(2))}), M(map[string]Value{"k": L(N(2))})},
	}
	for _, c := range eq {
		if !c.a.Equal(c.b) {
			t.Errorf("%v != %v, want equal", c.a, c.b)
		}
	}
	ne := []struct{ a, b Value }{
		{Null, S("")},
		{S("x"), S("y")},
		{N(1), N(2)},
		{N(1), S("1")},
		{L(N(1)), L(N(1), N(2))},
		{M(map[string]Value{"k": N(1)}), M(map[string]Value{"j": N(1)})},
	}
	for _, c := range ne {
		if c.a.Equal(c.b) {
			t.Errorf("%v == %v, want unequal", c.a, c.b)
		}
	}
}

func TestValueCompare(t *testing.T) {
	if S("a").Compare(S("b")) >= 0 {
		t.Error("a !< b")
	}
	if N(2).Compare(N(10)) >= 0 {
		t.Error("2 !< 10 numerically")
	}
	if S("2").Compare(S("10")) <= 0 {
		t.Error("string compare should be lexicographic")
	}
	if N(5).Compare(N(5)) != 0 {
		t.Error("5 != 5")
	}
	// Cross-kind ordering is total and antisymmetric.
	if c1, c2 := S("x").Compare(N(1)), N(1).Compare(S("x")); c1 == 0 || c1 == c2 {
		t.Errorf("cross-kind compare not antisymmetric: %d %d", c1, c2)
	}
}

func TestValueCloneIsolation(t *testing.T) {
	inner := map[string]Value{"a": N(1)}
	orig := M(inner)
	cl := orig.Clone()
	inner["a"] = N(99)
	if v, _ := cl.MapGet("a"); v.Num() != 1 {
		t.Errorf("clone saw mutation: %v", v)
	}
	bs := []byte("ab")
	ob := Bytes(bs)
	cb := ob.Clone()
	bs[0] = 'z'
	if string(cb.BytesVal()) != "ab" {
		t.Errorf("bytes clone saw mutation: %q", cb.BytesVal())
	}
}

func TestValueSize(t *testing.T) {
	if S("abcd").Size() != 4 {
		t.Errorf("string size = %d", S("abcd").Size())
	}
	if N(1).Size() != 8 {
		t.Errorf("number size = %d", N(1).Size())
	}
	if Bool(true).Size() != 1 || Null.Size() != 1 {
		t.Error("bool/null size != 1")
	}
	m := M(map[string]Value{"key": S("abc")})
	// 3 (container) + len("key") + 1 + len("abc") = 3+3+1+3 = 10
	if m.Size() != 10 {
		t.Errorf("map size = %d, want 10", m.Size())
	}
}

func TestValueEqualReflexiveQuick(t *testing.T) {
	f := func(s string, n float64, b bool) bool {
		vs := []Value{S(s), N(n), Bool(b), L(S(s), N(n)), M(map[string]Value{s: N(n)})}
		for _, v := range vs {
			if !v.Equal(v.Clone()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetricQuick(t *testing.T) {
	f := func(a, b float64) bool {
		return N(a).Compare(N(b)) == -N(b).Compare(N(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		c1, c2 := S(a).Compare(S(b)), S(b).Compare(S(a))
		return c1 == -c2
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestItemGetSetRemove(t *testing.T) {
	it := Item{"A": N(1)}
	if v, ok := it.Get(A("A")); !ok || v.Num() != 1 {
		t.Fatalf("Get(A) = %v %v", v, ok)
	}
	if _, ok := it.Get(A("missing")); ok {
		t.Fatal("Get(missing) found")
	}
	if !it.set(AK("Log", "k1"), Bool(true)) {
		t.Fatal("set map entry failed")
	}
	if v, ok := it.Get(AK("Log", "k1")); !ok || !v.BoolVal() {
		t.Fatalf("Get(Log.k1) = %v %v", v, ok)
	}
	if it.set(AK("A", "x"), N(1)) {
		t.Fatal("set through non-map succeeded")
	}
	it, err := apply(it, Remove(AK("Log", "k1")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Get(AK("Log", "k1")); ok {
		t.Fatal("map entry survived remove")
	}
	if it, err = apply(it, Remove(A("A"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Get(A("A")); ok {
		t.Fatal("attr survived remove")
	}
	// Removing missing paths is a no-op.
	before := it.String()
	if it, err = apply(it, Remove(A("missing")), Remove(AK("missing", "x")), Remove(AK("Log", "missing"))); err != nil || it.String() != before {
		t.Fatalf("removing missing paths: %v, %v (was %v)", it, err, before)
	}
}

func TestItemSetCopyOnWrite(t *testing.T) {
	shared := M(map[string]Value{"k": N(1)})
	it1 := Item{"Log": shared}
	it2 := it1.Clone()
	if !it1.set(AK("Log", "k2"), N(2)) {
		t.Fatal("set failed")
	}
	if _, ok := it2.Get(AK("Log", "k2")); ok {
		t.Fatal("clone observed mutation (not copy-on-write)")
	}
}

func TestItemSize(t *testing.T) {
	it := Item{"Key": S("k"), "Value": S("0123456789")}
	want := 3 + 1 + 5 + 10
	if it.Size() != want {
		t.Errorf("Size = %d, want %d", it.Size(), want)
	}
}

func TestItemStringDeterministic(t *testing.T) {
	it := Item{"b": N(2), "a": N(1)}
	if got := it.String(); got != "{a=1 b=2}" {
		t.Errorf("String = %q", got)
	}
}

// TestFieldsSortsOnceAndKeepsTheLast: Fields takes entries in any order,
// keeps a repeated name's last value, and reads back in key order through
// Entries; Map hands out a copy that does not reach the value.
func TestFieldsSortsOnceAndKeepsTheLast(t *testing.T) {
	v := Fields(F("b", N(2)), F("a", N(1)), F("c", N(3)), F("a", N(9)))
	var got []string
	for k, e := range v.Entries() {
		got = append(got, fmt.Sprintf("%s=%v", k, e))
	}
	if want := "[a=9 b=2 c=3]"; fmt.Sprint(got) != want || v.MapLen() != 3 {
		t.Errorf("entries %v (%d), want %s", got, v.MapLen(), want)
	}
	if !v.Equal(M(map[string]Value{"a": N(9), "b": N(2), "c": N(3)})) || v.Get("b").Num() != 2 || !v.Get("z").IsNull() {
		t.Errorf("%v does not read as the map it holds", v)
	}
	m := v.Map()
	m["a"] = N(0)
	if v.Get("a").Num() != 9 {
		t.Error("editing the map Map returned reached the value")
	}
}

// TestAppliedBuildsTheRowAtItsFinalSize: an update expression that adds,
// removes and edits attributes — one of them twice — leaves a list sorted by
// name, each name once, with no spare capacity for the store to keep.
func TestAppliedBuildsTheRowAtItsFinalSize(t *testing.T) {
	cur := attrsOf(Item{"K": S("k"), "Pending": S("1"), "Done": Bool(false), "Log": M(map[string]Value{"x": N(1)})})
	next, err := applied(cur, []Update{
		Set(A("Done"), Bool(true)), Set(A("Ret"), S("ok")), Remove(A("Pending")),
		Set(AK("Log", "y"), N(2)), Remove(AK("Log", "x")), Add(A("N"), 2), Add(A("N"), 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mapOf(next).String(), `{Done:true,K:"k",Log:{y:2},N:5,Ret:"ok"}`; got != want || cap(next) != len(next) {
		t.Errorf("next row %s (len %d, cap %d), want %s at its length", got, len(next), cap(next), want)
	}
	if got := mapOf(cur).String(); got != `{Done:false,K:"k",Log:{x:1},Pending:"1"}` {
		t.Errorf("the current row was written: %s", got)
	}
}
