package dynamo

import (
	"slices"
	"strings"
)

// Field is one entry of a map value, or one attribute of a row the store
// holds, which it keeps in the same form: a name and its value. A map value
// is its fields sorted by name, each name once, so a lookup is a binary
// search, iteration is in key order, and n entries cost 56·n bytes where a Go
// map costs 608 for one to eight.
type Field struct {
	Name  string
	Value Value
}

// F returns a field, for Fields.
func F(name string, v Value) Field { return Field{Name: name, Value: v} }

// Fields returns a map value holding fs. The fields are sorted by name in
// place — a caller that lists them in order pays one pass to check — and a
// repeated name keeps its last value. The slice is not copied and, like every
// Value payload, must not be written afterwards.
func Fields(fs ...Field) Value {
	if !increasing(fs) {
		slices.SortStableFunc(fs, cmpField)
		out := fs[:0]
		for i, f := range fs {
			if i+1 == len(fs) || fs[i+1].Name != f.Name {
				out = append(out, f)
			}
		}
		clear(fs[len(out):]) // the dropped tail pins nothing
		fs = out
	}
	return mapOf(fs)
}

// increasing reports whether fs is sorted by name, each name once.
func increasing(fs []Field) bool {
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Name >= fs[i].Name {
			return false
		}
	}
	return true
}

// mapOf wraps a field list that is already sorted, each name once, as a map
// value sharing it.
func mapOf(fs []Field) Value {
	if len(fs) == 0 {
		return Value{ref: (*Field)(nil)}
	}
	return Value{num: float64(len(fs)), ref: &fs[0]}
}

func cmpField(a, b Field) int { return strings.Compare(a.Name, b.Name) }

// search finds name in a sorted field list: its index, or where it would be
// inserted.
func search(fs []Field, name string) (int, bool) {
	return slices.BinarySearchFunc(fs, name, func(f Field, name string) int {
		return strings.Compare(f.Name, name)
	})
}

func lookup(fs []Field, name string) (Value, bool) {
	if i, ok := search(fs, name); ok {
		return fs[i].Value, true
	}
	return Null, false
}

// withEntry returns cur with key set to v: a new map value beside cur, whose
// fields are shared and never written, or a one-entry map when cur is NULL.
// ok is false when cur is neither a map nor NULL.
func withEntry(cur Value, key string, v Value) (_ Value, ok bool) {
	switch cur.Kind() {
	case KindNull:
		return mapOf([]Field{{key, v}}), true
	case KindMap:
	default:
		return Null, false
	}
	old := cur.fields()
	i, found := search(old, key)
	if found {
		fs := slices.Clone(old)
		fs[i].Value = v
		return mapOf(fs), true
	}
	fs := make([]Field, len(old)+1)
	copy(fs, old[:i])
	fs[i] = Field{key, v}
	copy(fs[i+1:], old[i:])
	return mapOf(fs), true
}

// withoutEntry returns cur without key: cur itself when it has no such entry
// or is not a map, else a new map value beside it.
func withoutEntry(cur Value, key string) Value {
	old := cur.fields()
	i, found := search(old, key)
	if !found {
		return cur
	}
	fs := make([]Field, len(old)-1)
	copy(fs, old[:i])
	copy(fs[i:], old[i+1:])
	return mapOf(fs)
}

// attrs is a row's attributes as the store holds them: a field list sorted
// by name, converted from and to Item at the store's boundary. A stored
// row's list is never written; an update builds the next row's beside it.
type attrs []Field

// attrsOf copies an item's attributes into a list of the store's own.
func attrsOf(it Item) attrs {
	a := make(attrs, 0, len(it))
	for k, v := range it {
		a = append(a, Field{k, v})
	}
	slices.SortFunc(a, cmpField)
	return a
}

// item copies the list out into an Item of the caller's own.
func (a attrs) item() Item {
	it := make(Item, len(a))
	for _, f := range a {
		it[f.Name] = f.Value
	}
	return it
}

// Get resolves p against the attributes (see Item.Get).
func (a attrs) Get(p Path) (Value, bool) {
	v, ok := lookup(a, p.Attr)
	if !ok || p.MapKey == "" {
		return v, ok
	}
	return v.MapGet(p.MapKey)
}

// size is Item.Size of the same attributes.
func (a attrs) size() int {
	n := 0
	for _, f := range a {
		n += len(f.Name) + f.Value.Size()
	}
	return n
}

// touched is one attribute an update expression names, with the value (or
// absence) the expression leaves it with.
type touched struct {
	name    string
	v       Value
	present bool
}

// applied returns the row cur becomes under us, built beside it in one list
// of exactly the size it ends at. Updates to different attributes commute,
// so each attribute the expression names is brought to its final state on
// its own, in the expression's order, and the results are merged into cur's.
// cur is only read.
func applied(cur attrs, us []Update) (attrs, error) {
	var buf [8]touched
	ts := buf[:0]
	for _, u := range us {
		i := slices.IndexFunc(ts, func(t touched) bool { return t.name == u.Path.Attr })
		if i < 0 {
			v, ok := lookup(cur, u.Path.Attr)
			ts = append(ts, touched{u.Path.Attr, v, ok})
			i = len(ts) - 1
		}
		if err := u.apply(&ts[i]); err != nil {
			return nil, err
		}
	}
	n := len(cur)
	for _, t := range ts {
		_, had := search(cur, t.name)
		switch {
		case t.present && !had:
			n++
		case !t.present && had:
			n--
		}
	}
	slices.SortFunc(ts, func(a, b touched) int { return strings.Compare(a.name, b.name) })
	next := make(attrs, 0, n)
	for _, f := range cur {
		for len(ts) > 0 && ts[0].name < f.Name {
			if ts[0].present {
				next = append(next, Field{ts[0].name, ts[0].v})
			}
			ts = ts[1:]
		}
		if len(ts) > 0 && ts[0].name == f.Name {
			if ts[0].present {
				next = append(next, Field{f.Name, ts[0].v})
			}
			ts = ts[1:]
			continue
		}
		next = append(next, f)
	}
	for _, t := range ts {
		if t.present {
			next = append(next, Field{t.name, t.v})
		}
	}
	return next, nil
}
