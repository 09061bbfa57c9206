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

// A condition is a tree of the seven node types below, each a Cond. The
// constructors build them; a codec that ships conditions (internal/storage/
// codec) type-switches on exactly these, and any other Cond has no encoding.

// CondTrue is the vacuous condition: True.
type CondTrue struct{}

// CondExists is Exists(Path).
type CondExists struct{ Path Path }

// CondNotExists is NotExists(Path).
type CondNotExists struct{ Path Path }

// CondCmp compares the attribute at Path with Value: Op is one of "=", "!=",
// "<", "<=", ">", ">=" (Eq, Ne, Lt, Le, Gt, Ge).
type CondCmp struct {
	Path  Path
	Op    string
	Value Value
}

// CondAnd is And(Conds...).
type CondAnd struct{ Conds []Cond }

// CondOr is Or(Conds...).
type CondOr struct{ Conds []Cond }

// CondNot is Not(Cond).
type CondNot struct{ Cond Cond }

// Exists is true when the path resolves to a present (possibly NULL)
// attribute or map entry.
func Exists(p Path) Cond { return CondExists{p} }

// NotExists is true when the path does not resolve.
func NotExists(p Path) Cond { return CondNotExists{p} }

// Eq compares the attribute at p with v for deep equality. A missing
// attribute compares unequal to everything.
func Eq(p Path, v Value) Cond { return CondCmp{p, "=", v} }

// Ne is the negation of Eq; missing attributes compare not-equal.
func Ne(p Path, v Value) Cond { return CondCmp{p, "!=", v} }

// Lt is true when the attribute at p orders strictly before v. Missing
// attributes fail the comparison.
func Lt(p Path, v Value) Cond { return CondCmp{p, "<", v} }

// Le is Lt-or-Eq.
func Le(p Path, v Value) Cond { return CondCmp{p, "<=", v} }

// Gt is true when the attribute at p orders strictly after v.
func Gt(p Path, v Value) Cond { return CondCmp{p, ">", v} }

// Ge is Gt-or-Eq.
func Ge(p Path, v Value) Cond { return CondCmp{p, ">=", v} }

// And is true when every sub-condition is true. And() is true.
func And(cs ...Cond) Cond { return CondAnd{cs} }

// Or is true when any sub-condition is true. Or() is false.
func Or(cs ...Cond) Cond { return CondOr{cs} }

// Not negates a condition.
func Not(c Cond) Cond { return CondNot{c} }

// True is the vacuous condition.
func True() Cond { return CondTrue{} }

// IsNullOr is true when the attribute at p is missing, NULL, or satisfies
// the inner comparison — the shape of Beldi's lock-acquisition condition
// ("LockOwner = NULL || LockOwner.id = TXNID", Fig 11).
func IsNullOr(p Path, inner Cond) Cond {
	return Or(NotExists(p), Eq(p, Null), inner)
}

// Eval is true when the path resolves.
func (c CondExists) Eval(a Attrs) bool {
	_, ok := a.Get(c.Path)
	return ok
}

// String is DynamoDB's spelling of the condition.
func (c CondExists) String() string { return fmt.Sprintf("attribute_exists(%s)", c.Path) }

// Eval is true when the path does not resolve.
func (c CondNotExists) Eval(a Attrs) bool {
	_, ok := a.Get(c.Path)
	return !ok
}

// String is DynamoDB's spelling of the condition.
func (c CondNotExists) String() string { return fmt.Sprintf("attribute_not_exists(%s)", c.Path) }

// Eval compares the attribute at the path with the value.
func (c CondCmp) Eval(a Attrs) bool {
	got, ok := a.Get(c.Path)
	if !ok {
		// DynamoDB: comparisons against missing attributes fail, except
		// inequality which holds vacuously.
		return c.Op == "!="
	}
	switch c.Op {
	case "=":
		return got.Equal(c.Value)
	case "!=":
		return !got.Equal(c.Value)
	}
	cmp := got.Compare(c.Value)
	switch c.Op {
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

// String is the comparison as written.
func (c CondCmp) String() string { return fmt.Sprintf("%s %s %s", c.Path, c.Op, c.Value) }

// Eval is true when every sub-condition is.
func (c CondAnd) Eval(a Attrs) bool {
	for _, sub := range c.Conds {
		if !sub.Eval(a) {
			return false
		}
	}
	return true
}

// String joins the parenthesized sub-conditions with AND.
func (c CondAnd) String() string { return joinConds(c.Conds, " AND ") }

// Eval is true when any sub-condition is.
func (c CondOr) Eval(a Attrs) bool {
	for _, sub := range c.Conds {
		if sub.Eval(a) {
			return true
		}
	}
	return false
}

// String joins the parenthesized sub-conditions with OR.
func (c CondOr) String() string { return joinConds(c.Conds, " OR ") }

// Eval negates the sub-condition.
func (c CondNot) Eval(a Attrs) bool { return !c.Cond.Eval(a) }

// String is NOT of the parenthesized sub-condition.
func (c CondNot) String() string { return fmt.Sprintf("NOT (%s)", c.Cond) }

// Eval is true.
func (CondTrue) Eval(Attrs) bool { return true }

// String is TRUE.
func (CondTrue) String() string { return "TRUE" }

func joinConds(cs []Cond, sep string) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, sep)
}
