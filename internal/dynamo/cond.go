package dynamo

import (
	"fmt"
	"strings"
)

// Cond is a condition expression evaluated atomically against a single row
// inside the store's atomicity scope, exactly like a DynamoDB condition
// expression. Beldi's entire at-most-once argument rests on these checks
// being atomic with the update they guard (§3.1 of the paper).
type Cond interface {
	Eval(a Attrs) bool
	String() string
}

// Attrs is read-only access to a row's attributes: what a condition is
// evaluated against. An Item is one, and so is a row the store holds, which a
// condition reads in place — neither is converted or copied to be evaluated.
type Attrs interface {
	Get(p Path) (Value, bool)
}

type condExists struct{ p Path }
type condNotExists struct{ p Path }
type condCmp struct {
	p  Path
	op string // "=", "!=", "<", "<=", ">", ">="
	v  Value
}
type condAnd struct{ cs []Cond }
type condOr struct{ cs []Cond }
type condNot struct{ c Cond }
type condTrue struct{}

// Exists is true when the path resolves to a present (possibly NULL)
// attribute or map entry.
func Exists(p Path) Cond { return condExists{p} }

// NotExists is true when the path does not resolve.
func NotExists(p Path) Cond { return condNotExists{p} }

// Eq compares the attribute at p with v for deep equality. A missing
// attribute compares unequal to everything.
func Eq(p Path, v Value) Cond { return condCmp{p, "=", v} }

// Ne is the negation of Eq; missing attributes compare not-equal.
func Ne(p Path, v Value) Cond { return condCmp{p, "!=", v} }

// Lt is true when the attribute at p orders strictly before v. Missing
// attributes fail the comparison.
func Lt(p Path, v Value) Cond { return condCmp{p, "<", v} }

// Le is Lt-or-Eq.
func Le(p Path, v Value) Cond { return condCmp{p, "<=", v} }

// Gt is true when the attribute at p orders strictly after v.
func Gt(p Path, v Value) Cond { return condCmp{p, ">", v} }

// Ge is Gt-or-Eq.
func Ge(p Path, v Value) Cond { return condCmp{p, ">=", v} }

// And is true when every sub-condition is true. And() is true.
func And(cs ...Cond) Cond { return condAnd{cs} }

// Or is true when any sub-condition is true. Or() is false.
func Or(cs ...Cond) Cond { return condOr{cs} }

// Not negates a condition.
func Not(c Cond) Cond { return condNot{c} }

// True is the vacuous condition.
func True() Cond { return condTrue{} }

// IsNullOr is true when the attribute at p is missing, NULL, or satisfies
// the inner comparison — the shape of Beldi's lock-acquisition condition
// ("LockOwner = NULL || LockOwner.id = TXNID", Fig 11).
func IsNullOr(p Path, inner Cond) Cond {
	return Or(NotExists(p), Eq(p, Null), inner)
}

func (c condExists) Eval(a Attrs) bool {
	_, ok := a.Get(c.p)
	return ok
}
func (c condExists) String() string { return fmt.Sprintf("attribute_exists(%s)", c.p) }

func (c condNotExists) Eval(a Attrs) bool {
	_, ok := a.Get(c.p)
	return !ok
}
func (c condNotExists) String() string { return fmt.Sprintf("attribute_not_exists(%s)", c.p) }

func (c condCmp) Eval(a Attrs) bool {
	got, ok := a.Get(c.p)
	if !ok {
		// DynamoDB: comparisons against missing attributes fail, except
		// inequality which holds vacuously.
		return c.op == "!="
	}
	switch c.op {
	case "=":
		return got.Equal(c.v)
	case "!=":
		return !got.Equal(c.v)
	}
	cmp := got.Compare(c.v)
	switch c.op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}
func (c condCmp) String() string { return fmt.Sprintf("%s %s %s", c.p, c.op, c.v) }

func (c condAnd) Eval(a Attrs) bool {
	for _, sub := range c.cs {
		if !sub.Eval(a) {
			return false
		}
	}
	return true
}
func (c condAnd) String() string { return joinConds(c.cs, " AND ") }

func (c condOr) Eval(a Attrs) bool {
	for _, sub := range c.cs {
		if sub.Eval(a) {
			return true
		}
	}
	return false
}
func (c condOr) String() string { return joinConds(c.cs, " OR ") }

func (c condNot) Eval(a Attrs) bool { return !c.c.Eval(a) }
func (c condNot) String() string    { return fmt.Sprintf("NOT (%s)", c.c) }

func (condTrue) Eval(Attrs) bool { return true }
func (condTrue) String() string  { return "TRUE" }

func joinConds(cs []Cond, sep string) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, sep)
}
