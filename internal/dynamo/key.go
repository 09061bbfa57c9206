package dynamo

import (
	"bytes"
	"math"
	"strconv"
)

// ScalarKey is the comparable identity of a key attribute value: what a
// partition map, a duplicate-target set or an overlay's dirty map is keyed
// by, built by KeyOf without allocating for a string, number or bool. Two
// values have the same ScalarKey exactly when the store would put them in the
// same partition: values of different kinds never collide (a string and a
// byte slice of equal payload are distinct), numbers are identified by their
// float64 bits — so -0 and +0 are two keys — except that every NaN is the
// one key, and NULL is the zero ScalarKey. Lists and maps are not key kinds;
// they get an identity (their rendering) only so that a malformed key cannot
// alias a well-formed one.
type ScalarKey struct {
	kind Kind
	str  string // KindString, KindBytes payload; String() of a list or map
	bits uint64 // KindNumber as Float64bits; KindBool as 0 or 1
}

// nanBits is the one bit pattern every NaN key is folded to.
var nanBits = math.Float64bits(math.NaN())

// KeyOf returns v's comparable identity (see ScalarKey).
func KeyOf(v Value) ScalarKey {
	switch k := v.Kind(); k {
	case KindNull:
		return ScalarKey{}
	case KindString:
		return ScalarKey{kind: KindString, str: v.str}
	case KindNumber:
		if v.num != v.num {
			return ScalarKey{kind: KindNumber, bits: nanBits}
		}
		return ScalarKey{kind: KindNumber, bits: math.Float64bits(v.num)}
	case KindBool:
		return ScalarKey{kind: KindBool, bits: uint64(v.num)}
	case KindBytes:
		return ScalarKey{kind: KindBytes, str: string(v.BytesVal())}
	default:
		return ScalarKey{kind: k, str: v.String()}
	}
}

// A key's rendered form is the string partitions used to be keyed by:
// "s:"+string, "n:"+shortest decimal, "b:"+bytes, "t:true"/"t:false", "" for
// NULL. Lock-stripe assignment hashes it and whole-table reads visit
// partitions in its order, so both are defined over it still — streamed or
// compared piecewise (prefix, then text or number), never built.

// prefix is the kind tag the rendered form starts with.
func (k ScalarKey) prefix() string {
	switch k.kind {
	case KindNull:
		return ""
	case KindString:
		return "s:"
	case KindNumber:
		return "n:"
	case KindBytes:
		return "b:"
	case KindBool:
		return "t:"
	default:
		return "?:"
	}
}

// text is the rendered form after the prefix for every kind but numbers.
func (k ScalarKey) text() string {
	if k.kind == KindBool {
		return strconv.FormatBool(k.bits != 0)
	}
	return k.str
}

// appendNumber renders a number key's decimal form into dst (24 bytes at
// most, so a stack buffer holds it).
func (k ScalarKey) appendNumber(dst []byte) []byte {
	return strconv.AppendFloat(dst, math.Float64frombits(k.bits), 'g', -1, 64)
}

// stripe maps the key to one of n lock stripes by FNV-1a over its rendered
// form. All rows of one partition (same hash key) land on the same stripe,
// so Query sees a consistent partition snapshot holding a single shard lock.
func (k ScalarKey) stripe(n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv1a(2166136261, k.prefix())
	if k.kind == KindNumber {
		var buf [32]byte
		h = fnv1a(h, k.appendNumber(buf[:0]))
	} else {
		h = fnv1a(h, k.text())
	}
	return int(h % uint32(n))
}

func fnv1a[T string | []byte](h uint32, s T) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Before reports whether k's rendered form sorts before o's: the order Scan
// and QueryIndex visit partitions in, and a deterministic order for anything
// else keyed by ScalarKey (numbers order by their decimal text, as strings).
func (k ScalarKey) Before(o ScalarKey) bool {
	if kp, op := k.prefix(), o.prefix(); kp != op {
		return kp < op
	}
	if k.kind == KindNumber {
		var kb, ob [32]byte
		return bytes.Compare(k.appendNumber(kb[:0]), o.appendNumber(ob[:0])) < 0
	}
	return k.text() < o.text()
}
