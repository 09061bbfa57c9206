package dynamo

import (
	"sort"
	"strings"
)

// Item is a row: a set of named attributes. It is the form callers build and
// receive, converted at the store's boundary — the store keeps a row's
// attributes as a sorted field list of its own (see Field) and a read builds
// a new Item, which is the caller's to add, replace and delete attributes in
// — but the conversion is one level deep: every Value in it is shared with
// the store and must not be written (see Value).
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
// or an attribute plus a map key (see Path). It makes an Item the Attrs a
// condition is evaluated against.
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
	if p.MapKey != "" {
		var ok bool
		if v, ok = withEntry(it[p.Attr], p.MapKey, v); !ok {
			return false
		}
	}
	it[p.Attr] = v
	return true
}
