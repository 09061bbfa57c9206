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
// The representation is three words of payload behind the kind (48 bytes):
// one scalar, one string, one reference for the aggregate kinds. A map is a
// field list (see Field): ref points at its first field and num holds its
// length, so a map value costs its fields and nothing more — and
// reflect.DeepEqual, following the pointer, sees only the first field:
// compare values with Equal. A list or byte slice is boxed (one 24-byte
// header per value).
type Value struct {
	kind Kind
	num  float64 // KindNumber payload; KindBool as 0 or 1; KindMap's field count
	str  string  // KindString payload
	ref  any     // *Field (a map's first), []Value or []byte for KindMap, KindList, KindBytes
}

// Null is the NULL value.
var Null = Value{}

// S returns a string value.
func S(s string) Value { return Value{kind: KindString, str: s} }

// N returns a number value. DynamoDB numbers are arbitrary-precision
// decimals; this store uses float64, which is exact for the integer ranges
// Beldi needs (step counters, timestamps in microseconds, ids).
func N(f float64) Value { return Value{kind: KindNumber, num: f} }

// NInt returns a number value from an int64.
func NInt(i int64) Value { return Value{kind: KindNumber, num: float64(i)} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Bytes returns a binary value. The slice is not copied and, like every
// Value payload, must not be written afterwards.
func Bytes(b []byte) Value { return Value{kind: KindBytes, ref: b} }

// L returns a list value. The slice is not copied and must not be written
// afterwards.
func L(vs ...Value) Value { return Value{kind: KindList, ref: vs} }

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
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload, or "" for non-strings.
func (v Value) Str() string { return v.str }

// Num returns the numeric payload, or 0 for non-numbers.
func (v Value) Num() float64 {
	if v.kind != KindNumber {
		return 0
	}
	return v.num
}

// Int returns the numeric payload truncated to int64.
func (v Value) Int() int64 { return int64(v.Num()) }

// BoolVal returns the boolean payload, or false for non-booleans.
func (v Value) BoolVal() bool { return v.kind == KindBool && v.num != 0 }

// BytesVal returns the binary payload, or nil for non-binary values. The
// returned slice must not be mutated.
func (v Value) BytesVal() []byte {
	b, _ := v.ref.([]byte)
	return b
}

// List returns the list payload, or nil. The returned slice must not be
// mutated.
func (v Value) List() []Value {
	l, _ := v.ref.([]Value)
	return l
}

// Map returns a copy of the map payload as a Go map of the caller's own, or
// nil for a non-map value. The values in it are shared. It allocates the
// whole map: a reader wants MapGet, Get or Entries.
func (v Value) Map() map[string]Value {
	if v.kind != KindMap {
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
	if v.kind != KindMap || v.num == 0 {
		return nil
	}
	return unsafe.Slice(v.ref.(*Field), int(v.num))
}

// Clone returns a deep copy of the value, for a caller that wants a nested
// map, list or byte slice of its own to edit. The store never calls it:
// values are shared across its boundary (see Value).
func (v Value) Clone() Value {
	switch v.kind {
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
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.str == o.str
	case KindNumber:
		return v.num == o.num
	case KindBool:
		return v.num == o.num
	case KindBytes:
		return string(v.BytesVal()) == string(o.BytesVal())
	case KindList:
		vl, ol := v.List(), o.List()
		if len(vl) != len(ol) {
			return false
		}
		for i := range vl {
			if !vl[i].Equal(ol[i]) {
				return false
			}
		}
		return true
	case KindMap:
		return slices.EqualFunc(v.fields(), o.fields(), func(a, b Field) bool {
			return a.Name == b.Name && a.Value.Equal(b.Value)
		})
	}
	return false
}

// Compare orders two values of the same scalar kind: -1, 0 or +1. Values of
// different kinds order by kind, matching how a sort key column with mixed
// types would be rejected by a real store but keeping ordering total here.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
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
	switch v.kind {
	case KindNull, KindBool:
		return 1
	case KindString:
		return len(v.str)
	case KindNumber:
		return 8
	case KindBytes:
		return len(v.BytesVal())
	case KindList:
		n := 3
		for _, e := range v.List() {
			n += 1 + e.Size()
		}
		return n
	case KindMap:
		n := 3
		for _, f := range v.fields() {
			n += len(f.Name) + 1 + f.Value.Size()
		}
		return n
	}
	return 1
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.kind {
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
