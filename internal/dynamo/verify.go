package dynamo

import (
	"fmt"
	"math"
	"sync"
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

// sums is the tripwire's side table: the fingerprint of each of a table's
// live rows, taken at install. Rows do not carry it, so the store pays
// nothing for it while the tripwire is off, and it is written and read only
// while the tripwire is on. A row deleted from the table leaves it; a
// replaced row, which is the same row with new attributes, is
// fingerprinted again.
type sums struct {
	mu sync.Mutex
	of map[*row]uint64
}

// remember fingerprints r's attributes as installed. Caller holds the
// shard's write lock.
func (t *table) remember(r *row) {
	if !verifyShared {
		return
	}
	t.sums.mu.Lock()
	if t.sums.of == nil {
		t.sums.of = make(map[*row]uint64)
	}
	t.sums.of[r] = fingerprint(mapOf(r.attrs))
	t.sums.mu.Unlock()
}

// forget drops a row that leaves the table. Caller holds the shard's write
// lock.
func (t *table) forget(r *row) {
	if !verifyShared {
		return
	}
	t.sums.mu.Lock()
	delete(t.sums.of, r)
	t.sums.mu.Unlock()
}

// verify panics if the row's values are not what was installed. Caller
// holds the shard's lock.
func (t *table) verify(r *row) {
	if !verifyShared {
		return
	}
	t.sums.mu.Lock()
	sum := t.sums.of[r]
	t.sums.mu.Unlock()
	if fingerprint(mapOf(r.attrs)) != sum {
		k, _ := t.schema.KeyOf(r)
		panic(fmt.Sprintf("dynamo: table %s key %s: a value shared with the store was written after it was installed (row is now %s)",
			t.schema.Name, k, r.attrs.item()))
	}
}

// fingerprint hashes a value's kind and payload, recursively; a map's
// fields, and a row's attributes, in their sorted order.
func fingerprint(v Value) uint64 {
	const prime = 1099511628211
	k := v.Kind()
	h := (14695981039346656037 ^ uint64(k)) * prime
	mix := func(h uint64, s string) uint64 {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		return (h ^ uint64(len(s))) * prime
	}
	switch k {
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
