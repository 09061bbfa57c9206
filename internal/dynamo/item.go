package dynamo

import (
	"sort"
	"strings"
)

// Item is a row: a set of named attributes. The attribute map is the unit
// the store copies at its boundary — the Item a read returns is the caller's
// to add, replace and delete attributes in, and the store keeps a map of its
// own for an Item it is given — but the copy is one level deep: every Value
// in it is shared with the store and must not be written (see Value).
type Item map[string]Value

// Clone deep-copies the item, nested values included, for a caller that
// wants to edit inside them. No store path calls it.
func (it Item) Clone() Item {
	if it == nil {
		return nil
	}
	out := make(Item, len(it))
	for k, v := range it {
		out[k] = v.Clone()
	}
	return out
}

// Get returns the attribute at path. A path is either a bare attribute name
// or an attribute plus a map key (see Path).
func (it Item) Get(p Path) (Value, bool) {
	v, ok := it[p.Attr]
	if !ok {
		return Null, false
	}
	if p.MapKey == "" {
		return v, true
	}
	return v.MapGet(p.MapKey)
}

// Size approximates the item's DynamoDB storage footprint: the sum over
// attributes of name length plus value size.
func (it Item) Size() int {
	n := 0
	for k, v := range it {
		n += len(k) + v.Size()
	}
	return n
}

// String renders the item with sorted attribute names, for debugging and
// deterministic test output.
func (it Item) String() string {
	keys := make([]string, 0, len(it))
	for k := range it {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(it[k].String())
	}
	b.WriteByte('}')
	return b.String()
}

// Path addresses an attribute, optionally descending one level into a map
// attribute (Beldi's linked DAAL stores its per-row write log as a map
// attribute keyed by "instanceID.step", so one level is all the protocols
// need).
type Path struct {
	Attr   string
	MapKey string
}

// A returns a path to a top-level attribute.
func A(attr string) Path { return Path{Attr: attr} }

// AK returns a path to an entry of a map attribute.
func AK(attr, key string) Path { return Path{Attr: attr, MapKey: key} }

// String renders the path for diagnostics.
func (p Path) String() string {
	if p.MapKey == "" {
		return p.Attr
	}
	return p.Attr + "." + p.MapKey
}

// set stores v at path inside the item, materialising the intermediate map
// if needed. It returns false if the path descends into a non-map attribute.
// Only the item's own attribute map is written: a nested map is replaced by
// an edited copy, never edited.
func (it Item) set(p Path, v Value) bool {
	if p.MapKey == "" {
		it[p.Attr] = v
		return true
	}
	cur, ok := it[p.Attr]
	if !ok || cur.IsNull() {
		it[p.Attr] = M(map[string]Value{p.MapKey: v})
		return true
	}
	if cur.Kind() != KindMap {
		return false
	}
	// Copy-on-write: the current map is shared with the stored row and with
	// every reader that was handed it.
	old := cur.Map()
	m := make(map[string]Value, len(old)+1)
	for k, e := range old {
		m[k] = e
	}
	m[p.MapKey] = v
	it[p.Attr] = M(m)
	return true
}

// remove deletes the attribute or map entry at path. Removing a missing
// path is a no-op, matching DynamoDB's REMOVE action.
func (it Item) remove(p Path) {
	if p.MapKey == "" {
		delete(it, p.Attr)
		return
	}
	cur, ok := it[p.Attr]
	if !ok || cur.Kind() != KindMap {
		return
	}
	old := cur.Map()
	if _, exists := old[p.MapKey]; !exists {
		return
	}
	m := make(map[string]Value, len(old))
	for k, e := range old {
		if k != p.MapKey {
			m[k] = e
		}
	}
	it[p.Attr] = M(m)
}
