package dynamo

import "fmt"

// Update is one action of an update expression, applied atomically with the
// condition that guards it (DynamoDB's SET / ADD / REMOVE actions).
type Update interface {
	apply(it Item) error
	String() string
}

type updateSet struct {
	p Path
	v Value
}
type updateAdd struct {
	p Path
	d float64
}
type updateRemove struct{ p Path }

// Set stores v at path, creating the attribute (and, for map paths, the
// enclosing map) if absent. v is installed as it is, not copied: a nested
// map, list or byte slice in it is shared with the store from then on and
// must not be written (see Value).
func Set(p Path, v Value) Update { return updateSet{p, v} }

// Add increments the number at path by d, treating a missing attribute as 0
// — DynamoDB's ADD action, which Beldi uses for "LogSize = LogSize + 1".
func Add(p Path, d float64) Update { return updateAdd{p, d} }

// Remove deletes the attribute or map entry at path.
func Remove(p Path) Update { return updateRemove{p} }

func (u updateSet) apply(it Item) error {
	if !it.set(u.p, u.v) {
		return fmt.Errorf("dynamo: SET %s: attribute %q is not a map", u.p, u.p.Attr)
	}
	return nil
}
func (u updateSet) String() string { return fmt.Sprintf("SET %s = %s", u.p, u.v) }

func (u updateAdd) apply(it Item) error {
	cur, ok := it.Get(u.p)
	if ok && cur.Kind() != KindNumber && !cur.IsNull() {
		return fmt.Errorf("dynamo: ADD %s: attribute is %s, not a number", u.p, cur.Kind())
	}
	if !it.set(u.p, N(cur.Num()+u.d)) {
		return fmt.Errorf("dynamo: ADD %s: attribute %q is not a map", u.p, u.p.Attr)
	}
	return nil
}
func (u updateAdd) String() string { return fmt.Sprintf("ADD %s %v", u.p, u.d) }

func (u updateRemove) apply(it Item) error {
	it.remove(u.p)
	return nil
}
func (u updateRemove) String() string { return fmt.Sprintf("REMOVE %s", u.p) }

// UpdateKind discriminates the action of an UpdateDesc.
type UpdateKind uint8

// The update action kinds.
const (
	UpdateSet UpdateKind = iota + 1
	UpdateAdd
	UpdateRemove
)

// UpdateDesc is a serializable description of an Update action — the form
// storage backends that journal logical mutations (internal/walstore) write
// to disk and replay. Value carries the SET payload; Delta the ADD payload.
type UpdateDesc struct {
	Kind  UpdateKind
	Path  Path
	Value Value
	Delta float64
}

// DescribeUpdate decomposes an Update built by Set, Add or Remove into its
// serializable description. It reports false for foreign implementations.
func DescribeUpdate(u Update) (UpdateDesc, bool) {
	switch a := u.(type) {
	case updateSet:
		return UpdateDesc{Kind: UpdateSet, Path: a.p, Value: a.v}, true
	case updateAdd:
		return UpdateDesc{Kind: UpdateAdd, Path: a.p, Delta: a.d}, true
	case updateRemove:
		return UpdateDesc{Kind: UpdateRemove, Path: a.p}, true
	}
	return UpdateDesc{}, false
}

// UpdateFromDesc rebuilds the Update an UpdateDesc describes.
func UpdateFromDesc(d UpdateDesc) (Update, error) {
	switch d.Kind {
	case UpdateSet:
		return Set(d.Path, d.Value), nil
	case UpdateAdd:
		return Add(d.Path, d.Delta), nil
	case UpdateRemove:
		return Remove(d.Path), nil
	}
	return nil, fmt.Errorf("dynamo: UpdateFromDesc: unknown kind %d", d.Kind)
}
