package dynamo

import "testing"

func TestCondExists(t *testing.T) {
	it := Item{"A": N(1), "M": M(map[string]Value{"k": Null})}
	if !Exists(A("A")).Eval(it) {
		t.Error("Exists(A) false")
	}
	if Exists(A("B")).Eval(it) {
		t.Error("Exists(B) true")
	}
	if !Exists(AK("M", "k")).Eval(it) {
		t.Error("Exists(M.k) false — NULL entries still exist")
	}
	if Exists(AK("M", "z")).Eval(it) {
		t.Error("Exists(M.z) true")
	}
	if !NotExists(A("B")).Eval(it) || NotExists(A("A")).Eval(it) {
		t.Error("NotExists misbehaves")
	}
}

func TestCondComparisons(t *testing.T) {
	it := Item{"N": N(5), "S": S("m")}
	cases := []struct {
		c    Cond
		want bool
	}{
		{Eq(A("N"), N(5)), true},
		{Eq(A("N"), N(6)), false},
		{Eq(A("missing"), N(5)), false},
		{Ne(A("N"), N(6)), true},
		{Ne(A("missing"), N(6)), true}, // vacuous
		{Lt(A("N"), N(6)), true},
		{Lt(A("N"), N(5)), false},
		{Le(A("N"), N(5)), true},
		{Gt(A("N"), N(4)), true},
		{Ge(A("N"), N(5)), true},
		{Lt(A("missing"), N(100)), false},
		{Gt(A("S"), S("a")), true},
	}
	for _, c := range cases {
		if got := c.c.Eval(it); got != c.want {
			t.Errorf("%s = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestCondBoolean(t *testing.T) {
	it := Item{"A": N(1)}
	if !And(Eq(A("A"), N(1)), Exists(A("A"))).Eval(it) {
		t.Error("And false")
	}
	if And(Eq(A("A"), N(1)), Exists(A("B"))).Eval(it) {
		t.Error("And true with failing leg")
	}
	if !And().Eval(it) {
		t.Error("empty And should be true")
	}
	if !Or(Eq(A("A"), N(2)), Eq(A("A"), N(1))).Eval(it) {
		t.Error("Or false")
	}
	if Or().Eval(it) {
		t.Error("empty Or should be false")
	}
	if Not(True()).Eval(it) {
		t.Error("Not(True) true")
	}
	if !True().Eval(nil) {
		t.Error("True false")
	}
}

func TestCondIsNullOr(t *testing.T) {
	// The Beldi lock condition: lock is free (missing or NULL) or already
	// held by this transaction.
	lockFree := IsNullOr(A("LockOwner"), Eq(AK("LockOwner", "Id"), S("tx1")))
	if !lockFree.Eval(Item{}) {
		t.Error("missing owner should pass")
	}
	if !lockFree.Eval(Item{"LockOwner": Null}) {
		t.Error("NULL owner should pass")
	}
	if !lockFree.Eval(Item{"LockOwner": M(map[string]Value{"Id": S("tx1")})}) {
		t.Error("own lock should pass")
	}
	if lockFree.Eval(Item{"LockOwner": M(map[string]Value{"Id": S("tx2")})}) {
		t.Error("other's lock should fail")
	}
}

func TestCondStrings(t *testing.T) {
	// String rendering shouldn't panic and should mention the path.
	conds := []Cond{
		Exists(A("X")), NotExists(AK("M", "k")), Eq(A("X"), N(1)),
		And(True(), Not(True())), Or(Lt(A("X"), N(2))),
	}
	for _, c := range conds {
		if c.String() == "" {
			t.Errorf("%T renders empty", c)
		}
	}
}

// apply runs an update expression against it, as the store does against a
// stored row, and returns the row it leaves.
func apply(it Item, us ...Update) (Item, error) {
	a, err := applied(attrsOf(it), us)
	return a.item(), err
}

func TestUpdateSet(t *testing.T) {
	it, err := apply(Item{}, Set(A("V"), S("x")))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := it.Get(A("V")); v.Str() != "x" {
		t.Errorf("V = %v", v)
	}
	if it, err = apply(it, Set(AK("Log", "k"), Bool(true))); err != nil {
		t.Fatal(err)
	}
	if v, ok := it.Get(AK("Log", "k")); !ok || !v.BoolVal() {
		t.Errorf("Log.k = %v %v", v, ok)
	}
	if _, err := apply(it, Set(AK("V", "k"), N(1))); err == nil {
		t.Error("Set through scalar should error")
	}
}

func TestUpdateAdd(t *testing.T) {
	it, err := apply(Item{"N": N(5)}, Add(A("N"), 3))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := it.Get(A("N")); v.Num() != 8 {
		t.Errorf("N = %v", v)
	}
	// Missing attribute treated as zero.
	if it, err = apply(it, Add(A("M"), 2)); err != nil {
		t.Fatal(err)
	}
	if v, _ := it.Get(A("M")); v.Num() != 2 {
		t.Errorf("M = %v", v)
	}
	if _, err := apply(Item{"S": S("x")}, Add(A("S"), 1)); err == nil {
		t.Error("Add to string should error")
	}
}

func TestUpdateRemove(t *testing.T) {
	it, err := apply(Item{"A": N(1), "M": M(map[string]Value{"k": N(2), "j": N(3)})}, Remove(A("A")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Get(A("A")); ok {
		t.Error("A survived")
	}
	if it, err = apply(it, Remove(AK("M", "k"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Get(AK("M", "k")); ok {
		t.Error("M.k survived")
	}
	if v, ok := it.Get(AK("M", "j")); !ok || v.Num() != 3 {
		t.Error("M.j damaged")
	}
}
