package dynamo

import (
	"fmt"
	"math"
)

// verifyShared is the immutability tripwire, switched on only by tests
// (export_test.go). The store shares values instead of copying them, which
// is sound only while nobody writes a value after handing it over or
// receiving it. With the tripwire on, every row is fingerprinted when it is
// installed — a deep walk of its values — and every later touch of the row
// (get, query, scan, replace, delete) walks it again and panics if the
// fingerprint moved: somebody wrote a map, list or byte slice the store
// holds. It is read without synchronisation, so it is set before the stores
// under test are used and not flipped while they run.
var verifyShared bool

// install makes a the row's attributes. Caller holds the shard's write lock.
func (r *row) install(a attrs) {
	r.attrs = a
	if verifyShared {
		r.sum = fingerprint(mapOf(a))
	}
}

// verify panics if the row's values are not what was installed. Caller
// holds the shard's lock.
func (r *row) verify(t *table) {
	if verifyShared && fingerprint(mapOf(r.attrs)) != r.sum {
		k, _ := t.keyOf(r)
		panic(fmt.Sprintf("dynamo: table %s key %s: a value shared with the store was written after it was installed (row is now %s)",
			t.schema.Name, k, r.attrs.item()))
	}
}

// fingerprint hashes a value's kind and payload, recursively; a map's
// fields, and a row's attributes, in their sorted order.
func fingerprint(v Value) uint64 {
	const prime = 1099511628211
	h := (14695981039346656037 ^ uint64(v.kind)) * prime
	mix := func(h uint64, s string) uint64 {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		return (h ^ uint64(len(s))) * prime
	}
	switch v.kind {
	case KindString:
		h = mix(h, v.str)
	case KindNumber, KindBool:
		h = (h ^ math.Float64bits(v.num)) * prime
	case KindBytes:
		h = mix(h, string(v.BytesVal()))
	case KindList:
		for _, e := range v.List() {
			h = (h ^ fingerprint(e)) * prime
		}
	case KindMap:
		for _, f := range v.fields() {
			h = (h ^ mix(fingerprint(f.Value), f.Name)) * prime
		}
	}
	return h
}
