package dynamo

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// encodeScalar is what partitions were keyed by before ScalarKey: the
// string rendering of a key value. It stays here as the reference the
// comparable key must agree with on identity, order and stripe.
func encodeScalar(v Value) string {
	switch v.Kind() {
	case KindString:
		return "s:" + v.Str()
	case KindNumber:
		return "n:" + strconv.FormatFloat(v.Num(), 'g', -1, 64)
	case KindBytes:
		return "b:" + string(v.BytesVal())
	case KindBool:
		return "t:" + strconv.FormatBool(v.BoolVal())
	case KindNull:
		return ""
	default:
		return "?:" + v.String()
	}
}

// shardIndex is the reference stripe assignment: FNV-1a of the rendering.
func shardIndex(encodedHash string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(encodedHash); i++ {
		h ^= uint32(encodedHash[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// keyEdges are the values where a comparable key could part ways with the
// rendering: signed zeros, NaNs of two payloads, a number past the %f range,
// empty payloads, equal payloads under different kinds, and the non-key kinds.
func keyEdges() []Value {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 0x5)
	return []Value{
		Null, S(""), S("a"), S("n:1"), S("true"), Bytes(nil), Bytes([]byte("a")), Bytes([]byte("true")),
		N(0), N(math.Copysign(0, -1)), N(math.NaN()), N(-math.NaN()), N(nan2),
		N(1), N(10), N(2), N(-1), N(1e21), N(1e-7), N(math.Inf(1)), N(math.Inf(-1)), N(math.MaxFloat64),
		Bool(true), Bool(false),
		L(), L(S("a")), M(nil), M(map[string]Value{"a": S("a")}),
	}
}

func randomScalar(r *rand.Rand) Value {
	letters := func() string {
		b := make([]byte, r.Intn(4))
		for i := range b {
			b[i] = "ab:0"[r.Intn(4)]
		}
		return string(b)
	}
	switch r.Intn(6) {
	case 0:
		return S(letters())
	case 1:
		return Bytes([]byte(letters()))
	case 2:
		return N(float64(r.Intn(40) - 20))
	case 3:
		return N(math.Float64frombits(r.Uint64()))
	case 4:
		return Bool(r.Intn(2) == 0)
	default:
		return Null
	}
}

// TestScalarKeyAgreesWithTheRendering: over the edges and a few hundred
// random scalars, pairwise — two values share a key exactly when they shared
// a rendering, keys order as renderings did, and a key lands on the stripe
// its rendering hashed to.
func TestScalarKeyAgreesWithTheRendering(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vals := keyEdges()
	for i := 0; i < 300; i++ {
		vals = append(vals, randomScalar(r))
	}
	for _, a := range vals {
		ka, ea := KeyOf(a), encodeScalar(a)
		for _, n := range []int{2, 8, 16} {
			if got, want := ka.stripe(n), shardIndex(ea, n); got != want {
				t.Errorf("%v: stripe of %d = %d, rendering %q hashes to %d", a, n, got, ea, want)
			}
		}
		if ka.stripe(1) != 0 {
			t.Errorf("%v: one stripe", a)
		}
		for _, b := range vals {
			kb, eb := KeyOf(b), encodeScalar(b)
			if (ka == kb) != (ea == eb) {
				t.Errorf("%v and %v: keys equal %v, renderings %q %q", a, b, ka == kb, ea, eb)
			}
			if ka.Before(kb) != (ea < eb) {
				t.Errorf("%v before %v = %v, renderings %q %q", a, b, ka.Before(kb), ea, eb)
			}
		}
	}
}

// TestScanVisitsPartitionsInRenderedOrder: the golden order of a whole-table
// read over mixed-kind hash keys, striped or not, is that of the renderings —
// "n:10" before "n:2" included — so nothing that replays a scan is re-derived.
func TestScanVisitsPartitionsInRenderedOrder(t *testing.T) {
	var keys []Value
	for _, v := range keyEdges() {
		if k := v.Kind(); k != KindList && k != KindMap && k != KindNull {
			keys = append(keys, v)
		}
	}
	var want []string
	seen := map[string]bool{}
	for _, k := range keys {
		if e := encodeScalar(k); !seen[e] {
			seen[e] = true
			want = append(want, e)
		}
	}
	sort.Strings(want)
	for _, shards := range []int{1, 8} {
		s := NewStore(WithShards(shards))
		s.MustCreateTable(Schema{Name: "t", HashKey: "K", Indexes: []IndexSchema{{Name: "all", HashKey: "One"}}})
		for _, k := range keys {
			mustPut(t, s, "t", Item{"K": k, "One": N(1)})
		}
		rows, err := s.Scan("t", QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		byIndex, err := s.QueryIndex("t", "all", N(1), QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]Item{"Scan": rows, "QueryIndex": byIndex} {
			if len(got) != len(want) {
				t.Fatalf("%d shards: %s returned %d rows, want %d", shards, name, len(got), len(want))
			}
			for i, it := range got {
				if e := encodeScalar(it["K"]); e != want[i] {
					t.Errorf("%d shards: %s row %d is %q, want %q", shards, name, i, e, want[i])
				}
			}
		}
	}
}
