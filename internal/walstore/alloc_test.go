package walstore

import (
	"testing"

	"repro/internal/dynamo"
	"repro/internal/raceflag"
)

// TestUpdateAllocBudget pins what one committed mutation allocates on an open
// store: nothing for its record — the store's one encoder frames it in place,
// keys sorted on the encoder's own stack — and nothing of its own beyond the
// memtable's apply, which is internal/dynamo's to shrink. The watcher is there because commit notifications used to cost
// a slice per record while anyone watched.
func TestUpdateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	s := openT(t, t.TempDir(), Options{Sync: SyncNone, AutoCompactBytes: -1})
	defer s.Close()
	if err := s.CreateTable(dynamo.Schema{Name: "c", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Watch("c", dynamo.S("another-key"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	key := dynamo.HK(dynamo.S("counter-1"))
	ups := []dynamo.Update{dynamo.Add(dynamo.A("N"), 1), dynamo.Set(dynamo.AK("Log", "step-1"), dynamo.S("v"))}
	update := func() {
		if err := s.Update("c", key, nil, ups...); err != nil {
			t.Fatal(err)
		}
	}
	update()

	rec := record{seq: 1, typ: recCommit, ops: []dynamo.TxOp{{Table: "c", Key: key, Updates: ups}}}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := encodeRecord(s.enc, rec); err != nil {
			t.Fatal(err)
		}
		s.enc.Reset()
	}); n != 0 {
		t.Errorf("encoding a record into the store's encoder: %v allocations, want 0", n)
	}

	mem := dynamo.NewStore()
	mem.MustCreateTable(dynamo.Schema{Name: "c", HashKey: "K"})
	apply := testing.AllocsPerRun(1000, func() {
		if err := mem.Update("c", key, nil, ups...); err != nil {
			t.Fatal(err)
		}
	})
	const own = 0 // the walstore's own share of a mutation, on top of the memtable's
	if n := testing.AllocsPerRun(1000, update); n > apply+own {
		t.Errorf("one Update: %v allocations, want at most the memtable's %v + %d", n, apply, own)
	}
}
