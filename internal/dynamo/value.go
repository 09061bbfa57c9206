// Package dynamo is an in-memory, linearizable NoSQL store modelled on the
// slice of DynamoDB that Beldi depends on (§2.2 of the paper): strongly
// consistent reads, atomic conditional updates scoped to a single row,
// query/scan with filtering and projection, local secondary indexes, a
// bounded item size (400 KB on DynamoDB), and multi-row transactions
// (DynamoDB's TransactWriteItems, used only by the cross-table-transaction
// comparator of §7.3).
//
// The store is deliberately server-free: it stands in for the managed
// database a stateful serverless function would call over the network. An
// injectable latency model recreates the round-trip cost structure that the
// paper's figures measure.
package dynamo

import (
	"fmt"
	"iter"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the store. They mirror DynamoDB's attribute
// types (S, N, BOOL, B, L, M and NULL).
const (
	KindNull Kind = iota
	KindString
	KindNumber
	KindBool
	KindBytes
	KindList
	KindMap
)

// String returns the kind's name for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindString:
		return "S"
	case KindNumber:
		return "N"
	case KindBool:
		return "BOOL"
	case KindBytes:
		return "B"
	case KindList:
		return "L"
	case KindMap:
		return "M"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed attribute value. The zero Value is NULL.
//
// Values are immutable: a value handed to or received from a store is
// shared, not copied — the store installs the caller's nested field lists,
// lists and byte slices as they are and hands the same ones to every reader
// — so nothing reachable from a Value may be written once it has been built.
// Clone makes a private deep copy for a caller that wants one to edit.
//
// The representation is 40 bytes: one scalar, one string, and one reference
// whose dynamic type is the kind. ref is nil for NULL; a Kind constant for S,
// N and BOOL (boxing a one-byte constant allocates nothing); and for M, L and
// B a pointer to the first element of the payload — *Field, *Value or *byte —
// with num holding its length. So a map is its field list (see Field), a list
// or byte slice is its backing array, and none costs a header of its own.
//
// reflect.DeepEqual, following ref, sees only the first element of any
// aggregate: the first field of a map, the first element of a list, the
// first byte of a byte slice. Compare values with Equal. For the same reason
// == on two maps, lists or byte slices compares their identity, not their
// contents: it no longer panics, and it is still not what a caller wants.
type Value struct {
	num float64 // KindNumber payload; KindBool as 0 or 1; a map's, list's or byte slice's length
	str string  // KindString payload
	ref any     // nil, a Kind, or an aggregate's first *Field, *Value or *byte: see above
}

// Null is the NULL value.
var Null = Value{}

// S returns a string value.
func S(s string) Value { return Value{str: s, ref: KindString} }

// N returns a number value. DynamoDB numbers are arbitrary-precision
// decimals; this store uses float64, which is exact for the integer ranges
// Beldi needs (step counters, timestamps in microseconds, ids).
func N(f float64) Value { return Value{num: f, ref: KindNumber} }

// NInt returns a number value from an int64.
func NInt(i int64) Value { return Value{num: float64(i), ref: KindNumber} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{num: 1, ref: KindBool}
	}
	return Value{ref: KindBool}
}

// Bytes returns a binary value. The slice is not copied and, like every
// Value payload, must not be written afterwards.
func Bytes(b []byte) Value {
	if len(b) == 0 {
		return Value{ref: (*byte)(nil)}
	}
	return Value{num: float64(len(b)), ref: &b[0]}
}

// L returns a list value. The slice is not copied and must not be written
// afterwards.
func L(vs ...Value) Value {
	if len(vs) == 0 {
		return Value{ref: (*Value)(nil)}
	}
	return Value{num: float64(len(vs)), ref: &vs[0]}
}

// M returns a map value holding m's entries. The map is copied into a field
// list, so the caller may go on editing it; the values in it are shared (see
// Value). Fields builds a map value without a Go map in between.
func M(m map[string]Value) Value {
	fs := make([]Field, 0, len(m))
	for k, v := range m {
		fs = append(fs, Field{k, v})
	}
	slices.SortFunc(fs, cmpField)
	return mapOf(fs)
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind {
	// One comparison of ref's type word each, the scalars' first: a type
	// switch would load a hash from the type descriptor before comparing.
	if k, ok := v.ref.(Kind); ok {
		return k
	}
	if _, ok := v.ref.(*Field); ok {
		return KindMap
	}
	if _, ok := v.ref.(*Value); ok {
		return KindList
	}
	if _, ok := v.ref.(*byte); ok {
		return KindBytes
	}
	return KindNull
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.ref == nil }

// Str returns the string payload, or "" for non-strings.
func (v Value) Str() string { return v.str }

// Num returns the numeric payload, or 0 for non-numbers.
func (v Value) Num() float64 {
	if v.ref != KindNumber {
		return 0
	}
	return v.num
}

// Int returns the numeric payload truncated to int64.
func (v Value) Int() int64 { return int64(v.Num()) }

// BoolVal returns the boolean payload, or false for non-booleans.
func (v Value) BoolVal() bool { return v.ref == KindBool && v.num != 0 }

// BytesVal returns the binary payload, or nil for non-binary values. The
// returned slice must not be mutated.
func (v Value) BytesVal() []byte {
	p, _ := v.ref.(*byte)
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, int(v.num))
}

// List returns the list payload, or nil. The returned slice must not be
// mutated.
func (v Value) List() []Value {
	p, _ := v.ref.(*Value)
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, int(v.num))
}

// Map returns a copy of the map payload as a Go map of the caller's own, or
// nil for a non-map value. The values in it are shared. It allocates the
// whole map: a reader wants MapGet, Get or Entries.
func (v Value) Map() map[string]Value {
	if _, ok := v.ref.(*Field); !ok {
		return nil
	}
	fs := v.fields()
	m := make(map[string]Value, len(fs))
	for _, f := range fs {
		m[f.Name] = f.Value
	}
	return m
}

// MapGet looks up key in a map value, returning the entry and whether it
// exists. Returns (Null, false) for non-map values.
func (v Value) MapGet(key string) (Value, bool) { return lookup(v.fields(), key) }

// Get returns the entry at key in a map value: Null when there is none or v
// is not a map.
func (v Value) Get(key string) Value {
	e, _ := v.MapGet(key)
	return e
}

// MapLen returns the number of entries in a map value, or 0.
func (v Value) MapLen() int { return len(v.fields()) }

// Entries iterates a map value's entries in key order, allocating nothing;
// a non-map value has none.
func (v Value) Entries() iter.Seq2[string, Value] {
	fs := v.fields()
	return func(yield func(string, Value) bool) {
		for i := range fs {
			if !yield(fs[i].Name, fs[i].Value) {
				return
			}
		}
	}
}

// fields is a map value's field list, sorted by name; nil for any other kind.
// It is the value's own and must not be written.
func (v Value) fields() []Field {
	p, _ := v.ref.(*Field)
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, int(v.num))
}

// Clone returns a deep copy of the value, for a caller that wants a nested
// map, list or byte slice of its own to edit. The store never calls it:
// values are shared across its boundary (see Value).
func (v Value) Clone() Value {
	switch v.Kind() {
	case KindBytes:
		return Bytes(append([]byte{}, v.BytesVal()...))
	case KindList:
		l := make([]Value, len(v.List()))
		for i, e := range v.List() {
			l[i] = e.Clone()
		}
		return L(l...)
	case KindMap:
		fs := slices.Clone(v.fields())
		for i := range fs {
			fs[i].Value = fs[i].Value.Clone()
		}
		return mapOf(fs)
	default:
		return v
	}
}

// Equal reports deep equality of two values. Values of different kinds are
// never equal (no numeric coercion).
func (v Value) Equal(o Value) bool {
	switch r := v.ref.(type) {
	case nil:
		return o.ref == nil
	case Kind:
		if k, ok := o.ref.(Kind); !ok || k != r {
			return false
		}
		if r == KindString {
			return v.str == o.str
		}
		return v.num == o.num
	case *byte:
		_, ok := o.ref.(*byte)
		return ok && string(v.BytesVal()) == string(o.BytesVal())
	case *Value:
		_, ok := o.ref.(*Value)
		return ok && slices.EqualFunc(v.List(), o.List(), Value.Equal)
	case *Field:
		_, ok := o.ref.(*Field)
		return ok && slices.EqualFunc(v.fields(), o.fields(), func(a, b Field) bool {
			return a.Name == b.Name && a.Value.Equal(b.Value)
		})
	}
	return false
}

// Compare orders two values of the same scalar kind: -1, 0 or +1. Values of
// different kinds order by kind, matching how a sort key column with mixed
// types would be rejected by a real store but keeping ordering total here.
func (v Value) Compare(o Value) int {
	k, ko := v.Kind(), o.Kind()
	if k != ko {
		if k < ko {
			return -1
		}
		return 1
	}
	switch k {
	case KindString:
		return strings.Compare(v.str, o.str)
	case KindNumber, KindBool:
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		}
		return 0
	case KindBytes:
		return strings.Compare(string(v.BytesVal()), string(o.BytesVal()))
	default:
		return 0
	}
}

// Size approximates the value's DynamoDB storage footprint in bytes: string
// and binary lengths, 8 bytes per number, 1 per bool/null, and 3 bytes of
// per-element overhead for containers (DynamoDB charges 3 bytes per list or
// map element plus 1 byte per nesting level; this approximation is close
// enough for the 400 KB row cap and the §7.3 storage accounting).
func (v Value) Size() int {
	switch r := v.ref.(type) {
	case Kind:
		switch r {
		case KindString:
			return len(v.str)
		case KindNumber:
			return 8
		}
	case *byte:
		return int(v.num)
	case *Value:
		n := 3
		for _, e := range v.List() {
			n += 1 + e.Size()
		}
		return n
	case *Field:
		n := 3
		for _, f := range v.fields() {
			n += len(f.Name) + 1 + f.Value.Size()
		}
		return n
	}
	return 1 // NULL, BOOL
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "null"
	case KindString:
		return strconv.Quote(v.str)
	case KindNumber:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.BoolVal())
	case KindBytes:
		return fmt.Sprintf("b%q", v.BytesVal())
	case KindList:
		parts := make([]string, len(v.List()))
		for i, e := range v.List() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ",") + "]"
	case KindMap:
		fs := v.fields()
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = fmt.Sprintf("%s:%s", f.Name, f.Value)
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	return "?"
}
