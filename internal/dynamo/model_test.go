package dynamo

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Model-based test: random operation sequences against the store and an
// in-memory model must agree on every intermediate read and on final state.
// This is the ground the core protocols stand on — conditional updates with
// exact check-then-apply semantics.

type modelOp struct {
	kind string // "put", "update", "delete", "get"
	key  string
	val  int64
	cond string // "", "exists", "absent", "eq"
	arg  int64
}

func genOps(r *rand.Rand, n int) []modelOp {
	keys := []string{"a", "b", "c"}
	kinds := []string{"put", "update", "delete", "get", "update", "get"}
	conds := []string{"", "exists", "absent", "eq"}
	ops := make([]modelOp, n)
	for i := range ops {
		ops[i] = modelOp{
			kind: kinds[r.Intn(len(kinds))],
			key:  keys[r.Intn(len(keys))],
			val:  int64(r.Intn(50)),
			cond: conds[r.Intn(len(conds))],
			arg:  int64(r.Intn(50)),
		}
	}
	return ops
}

func evalModelCond(model map[string]int64, op modelOp) bool {
	cur, exists := model[op.key]
	switch op.cond {
	case "exists":
		return exists
	case "absent":
		return !exists
	case "eq":
		return exists && cur == op.arg
	default:
		return true
	}
}

func buildCond(op modelOp) Cond {
	switch op.cond {
	case "exists":
		return Exists(A("V"))
	case "absent":
		return NotExists(A("V"))
	case "eq":
		return Eq(A("V"), NInt(op.arg))
	default:
		return nil
	}
}

func TestStoreAgreesWithModel(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.MustCreateTable(Schema{Name: "t", HashKey: "K"})
		model := make(map[string]int64)
		for i, op := range genOps(r, 60) {
			want := evalModelCond(model, op)
			switch op.kind {
			case "put":
				err := s.Put("t", Item{"K": S(op.key), "V": NInt(op.val)}, buildCond(op))
				if got := err == nil; got != want {
					t.Logf("op %d %+v: put ok=%v want %v", i, op, got, want)
					return false
				}
				if err != nil && !errors.Is(err, ErrConditionFailed) {
					return false
				}
				if want {
					model[op.key] = op.val
				}
			case "update":
				err := s.Update("t", HK(S(op.key)), buildCond(op), Set(A("V"), NInt(op.val)))
				if got := err == nil; got != want {
					t.Logf("op %d %+v: update ok=%v want %v", i, op, got, want)
					return false
				}
				if want {
					model[op.key] = op.val
				}
			case "delete":
				err := s.Delete("t", HK(S(op.key)), buildCond(op))
				if got := err == nil; got != want {
					t.Logf("op %d %+v: delete ok=%v want %v", i, op, got, want)
					return false
				}
				if want {
					delete(model, op.key)
				}
			case "get":
				it, ok, err := s.Get("t", HK(S(op.key)))
				if err != nil {
					return false
				}
				mv, exists := model[op.key]
				if ok != exists {
					t.Logf("op %d %+v: presence %v want %v", i, op, ok, exists)
					return false
				}
				if ok {
					// Put-created rows always have V; Update-created rows have
					// V too (only Set(V) updates are issued).
					if got := it["V"].Int(); got != mv {
						t.Logf("op %d %+v: V=%d want %d", i, op, got, mv)
						return false
					}
				}
			}
		}
		// Final state agreement (scan order is deterministic).
		items, err := s.Scan("t", QueryOpts{})
		if err != nil || len(items) != len(model) {
			t.Logf("final: %d rows, model %d (err %v)", len(items), len(model), err)
			return false
		}
		for _, it := range items {
			if it["V"].Int() != model[it["K"].Str()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTransactWriteAgreesWithSequential(t *testing.T) {
	// A transaction whose conditions all pass must be equivalent to
	// applying its ops one by one; a transaction with any failing condition
	// must be equivalent to applying nothing.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		txStore := NewStore()
		seqStore := NewStore()
		for _, s := range []*Store{txStore, seqStore} {
			s.MustCreateTable(Schema{Name: "t", HashKey: "K"})
			for _, k := range []string{"a", "b", "c"} {
				if r.Intn(2) == 0 {
					continue
				}
				_ = s.Put("t", Item{"K": S(k), "V": NInt(int64(r.Intn(5)))}, nil)
			}
		}
		// Same seeding for both stores requires re-seeding deterministically:
		// instead, copy seqStore's state from txStore via scan.
		items, _ := txStore.Scan("t", QueryOpts{})
		seqStore2 := NewStore()
		seqStore2.MustCreateTable(Schema{Name: "t", HashKey: "K"})
		for _, it := range items {
			_ = seqStore2.Put("t", it, nil)
		}

		keys := []string{"a", "b", "c"}
		var ops []TxOp
		for i, k := range keys[:1+r.Intn(3)] {
			op := TxOp{Table: "t", Key: HK(S(k)),
				Updates: []Update{Set(A("V"), NInt(int64(100+i)))}}
			if r.Intn(3) == 0 {
				op.Cond = Eq(A("V"), NInt(int64(r.Intn(5))))
			}
			ops = append(ops, op)
		}
		txErr := txStore.TransactWrite(ops)

		// Sequential application with all-or-nothing semantics.
		allPass := true
		for _, op := range ops {
			it, ok, _ := seqStore2.Get("t", op.Key)
			cur := noItem
			if ok {
				cur = it
			}
			if op.Cond != nil && !op.Cond.Eval(cur) {
				allPass = false
			}
		}
		if allPass != (txErr == nil) {
			t.Logf("txErr=%v allPass=%v", txErr, allPass)
			return false
		}
		if allPass {
			for _, op := range ops {
				if err := seqStore2.Update("t", op.Key, nil, op.Updates...); err != nil {
					return false
				}
			}
		}
		// Compare final states.
		a, _ := txStore.Scan("t", QueryOpts{})
		b, _ := seqStore2.Scan("t", QueryOpts{})
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Logf("diverged: %v vs %v", a[i], b[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQueryMatchesFilteredScan(t *testing.T) {
	// Query(hash) must equal Scan filtered to that hash, in the same order.
	s := NewStore()
	s.MustCreateTable(Schema{Name: "t", HashKey: "H", SortKey: "R"})
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		mustPut(t, s, "t", Item{
			"H": S(fmt.Sprintf("h%d", r.Intn(4))),
			"R": NInt(int64(i)),
			"V": NInt(int64(r.Intn(100))),
		})
	}
	for h := 0; h < 4; h++ {
		hash := S(fmt.Sprintf("h%d", h))
		q, err := s.Query("t", hash, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := s.Scan("t", QueryOpts{Filter: Eq(A("H"), hash)})
		if err != nil {
			t.Fatal(err)
		}
		if len(q) != len(sc) {
			t.Fatalf("h%d: query %d rows, scan %d", h, len(q), len(sc))
		}
		for i := range q {
			if q[i].String() != sc[i].String() {
				t.Fatalf("h%d row %d: %v vs %v", h, i, q[i], sc[i])
			}
		}
	}
}
