package dynamo

import "fmt"

// UpdateKind discriminates the action of an Update.
type UpdateKind uint8

// The update action kinds. They are also the action's tag on the wire and
// in the log.
const (
	UpdateSet UpdateKind = iota + 1
	UpdateAdd
	UpdateRemove
)

// Update is one action of an update expression, applied atomically with the
// condition that guards it (DynamoDB's SET / ADD / REMOVE actions). It is a
// plain value — what the codec writes and reads, and what the store applies
// — built by Set, Add or Remove. Value is SET's payload and ADD's delta (a
// number); REMOVE carries none. The zero Update has no kind: applying it is
// an error.
type Update struct {
	Kind  UpdateKind
	Path  Path
	Value Value
}

// Set stores v at path, creating the attribute (and, for map paths, the
// enclosing map) if absent. v is installed as it is, not copied: a nested
// map, list or byte slice in it is shared with the store from then on and
// must not be written (see Value).
func Set(p Path, v Value) Update { return Update{Kind: UpdateSet, Path: p, Value: v} }

// Add increments the number at path by d, treating a missing attribute as 0
// — DynamoDB's ADD action, which Beldi uses for "LogSize = LogSize + 1".
func Add(p Path, d float64) Update { return Update{Kind: UpdateAdd, Path: p, Value: N(d)} }

// Remove deletes the attribute or map entry at path.
func Remove(p Path) Update { return Update{Kind: UpdateRemove, Path: p} }

// apply brings one attribute the update names to its state after the
// update (see applied).
func (u Update) apply(t *touched) error {
	switch u.Kind {
	case UpdateSet:
		if !t.set(u.Path.MapKey, u.Value) {
			return fmt.Errorf("dynamo: SET %s: attribute %q is not a map", u.Path, u.Path.Attr)
		}
	case UpdateAdd:
		cur, ok := t.v, t.present
		if u.Path.MapKey != "" {
			cur, ok = t.v.MapGet(u.Path.MapKey)
		}
		if ok && cur.Kind() != KindNumber && !cur.IsNull() {
			return fmt.Errorf("dynamo: ADD %s: attribute is %s, not a number", u.Path, cur.Kind())
		}
		if !t.set(u.Path.MapKey, N(cur.Num()+u.Value.Num())) {
			return fmt.Errorf("dynamo: ADD %s: attribute %q is not a map", u.Path, u.Path.Attr)
		}
	case UpdateRemove:
		if u.Path.MapKey == "" {
			t.v, t.present = Null, false
		} else {
			t.v = withoutEntry(t.v, u.Path.MapKey)
		}
	default:
		return fmt.Errorf("dynamo: %s", u)
	}
	return nil
}

// set stores v in the attribute, or at key inside it — in an edited copy of
// its map, materialised when the attribute is absent or NULL. It returns
// false if the attribute holds something else.
func (t *touched) set(key string, v Value) bool {
	if key != "" {
		var ok bool
		if v, ok = withEntry(t.v, key, v); !ok {
			return false
		}
	}
	t.v, t.present = v, true
	return true
}

// String renders the action for diagnostics.
func (u Update) String() string {
	switch u.Kind {
	case UpdateSet:
		return fmt.Sprintf("SET %s = %s", u.Path, u.Value)
	case UpdateAdd:
		return fmt.Sprintf("ADD %s %v", u.Path, u.Value.Num())
	case UpdateRemove:
		return fmt.Sprintf("REMOVE %s", u.Path)
	}
	return fmt.Sprintf("unknown update kind %d", u.Kind)
}
