package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage"
)

func TestFsckCleanStatePasses(t *testing.T) {
	f := newFixture(t)
	f.fn("w", counterBody, "counter")
	for i := 0; i < 10; i++ {
		f.mustInvoke("w", dynamo.S("k"))
	}
	if err := Fsck(f.rts["w"]); err != nil {
		t.Errorf("clean state flagged: %v", err)
	}
}

func TestFsckPassesAfterChaosAndGC(t *testing.T) {
	plan := &platform.CrashProb{P: 0.02, Seed: 5}
	f := newFixture(t, withFaults(plan), withConfig(Config{
		RowCap: 4, T: 10 * time.Millisecond, ICMinAge: time.Millisecond,
	}))
	f.fn("w", counterBody, "counter")
	for i := 0; i < 25; i++ {
		f.invoke("w", dynamo.S("k")) //nolint:errcheck
	}
	plan.P = 0
	f.recoverAll()
	for pass := 0; pass < 3; pass++ {
		time.Sleep(12 * time.Millisecond)
		f.gcAll()
	}
	if err := Fsck(f.rts["w"]); err != nil {
		t.Errorf("post-chaos state flagged: %v", err)
	}
}

func TestFsckPassesAfterTransactions(t *testing.T) {
	f := newFixture(t, withConfig(Config{RowCap: 4, T: 5 * time.Millisecond, ICMinAge: time.Millisecond}))
	f.fn("bank", transferBody, "acct")
	seedAccounts(t, f, "bank", map[string]int64{"a": 100, "b": 100})
	for i := 0; i < 6; i++ {
		f.mustInvoke("bank", dynamo.M(map[string]Value{
			"from": dynamo.S("a"), "to": dynamo.S("b"), "amount": dynamo.NInt(5),
		}))
	}
	for pass := 0; pass < 3; pass++ {
		time.Sleep(8 * time.Millisecond)
		f.gcAll()
	}
	if err := Fsck(f.rts["bank"]); err != nil {
		t.Errorf("post-txn state flagged: %v", err)
	}
}

// TestFsckDetectsCorruption plants each kind of damage Fsck looks for, once,
// into a clean three-row chain (ten counter writes at RowCap 4) and pins the
// exact problem it reports.
func TestFsckDetectsCorruption(t *testing.T) {
	const table = "w.data.counter"
	type state struct {
		f      *fixture
		done   string   // a completed intent's id
		chain  []string // the chain's row ids, head first
		tailID string
	}
	rowKey := func(id string) dynamo.Key { return dynamo.HSK(dynamo.S("k"), dynamo.S(id)) }
	cases := []struct {
		name  string
		plant func(*state) error
		want  func(*state) string
	}{
		{"half-formed Args", func(s *state) error {
			return s.f.store.Update("w.intent", dynamo.HK(dynamo.S(s.done)), nil, dynamo.Remove(dynamo.A(attrArgs)))
		}, func(s *state) string {
			return "intent " + s.done + ": half-formed row (no Args) — zombie resurrection?"
		}},
		{"half-formed StartTime", func(s *state) error {
			return s.f.store.Update("w.intent", dynamo.HK(dynamo.S(s.done)), nil, dynamo.Remove(dynamo.A(attrStartTime)))
		}, func(s *state) string {
			return "intent " + s.done + ": half-formed row (no StartTime) — zombie resurrection?"
		}},
		{"LogSize mismatch", func(s *state) error {
			return s.f.store.Update(table, rowKey(s.tailID), nil, dynamo.Set(dynamo.A(attrLogSize), dynamo.N(3)))
		}, func(s *state) string {
			return table + "/k row " + s.tailID + ": LogSize 3 != 2 entries"
		}},
		{"exceeds cap", func(s *state) error {
			recent := make([]dynamo.Field, 5)
			for i := range recent {
				recent[i] = dynamo.F(fmt.Sprintf("x%d", i), dynamo.Bool(true))
			}
			return s.f.store.Update(table, rowKey(s.tailID), nil,
				dynamo.Set(dynamo.A(attrRecent), dynamo.Fields(recent...)),
				dynamo.Set(dynamo.A(attrLogSize), dynamo.N(5)))
		}, func(s *state) string {
			return table + "/k row " + s.tailID + ": LogSize 5 exceeds cap 4"
		}},
		{"recycled mark without an entry", func(s *state) error {
			return s.f.store.Update(table, rowKey(headRowID), nil,
				dynamo.Set(dynamo.A(attrRecycled), dynamo.Fields(dynamo.F("bogus", dynamo.Bool(true)))))
		}, func(s *state) string {
			return table + "/k row " + headRowID + ": recycled mark bogus has no log entry"
		}},
		{"cycle", func(s *state) error {
			return s.f.store.Update(table, rowKey(s.tailID), nil, dynamo.Set(dynamo.A(attrNextRow), dynamo.S(headRowID)))
		}, func(s *state) string {
			return table + "/k: cycle through row " + headRowID
		}},
		{"tail points at a missing row", func(s *state) error {
			return s.f.store.Update(table, rowKey(s.tailID), nil, dynamo.Set(dynamo.A(attrNextRow), dynamo.S("r99999999")))
		}, func(s *state) string {
			return table + "/k: tail " + s.tailID + " points at missing row r99999999"
		}},
		{"non-tail row not full", func(s *state) error {
			rows := scanChain(t, s.f.store, table)
			var first string
			for logKey := range rows[headRowID].recent.Entries() {
				first = logKey
				break
			}
			return s.f.store.Update(table, rowKey(headRowID), nil,
				dynamo.Remove(dynamo.AK(attrRecent, first)),
				dynamo.Set(dynamo.A(attrLogSize), dynamo.N(3)))
		}, func(s *state) string {
			return table + "/k: non-tail row " + headRowID + " not full (3/4)"
		}},
		{"lock held by a completed intent", func(s *state) error {
			// Only the tail's lock is authoritative (filled rows legitimately
			// retain stale owners), so plant the stale owner there.
			return s.f.store.Update(table, rowKey(s.tailID), nil,
				dynamo.Set(dynamo.A(attrLockOwner), lockOwnerValue(s.done, 1)))
		}, func(s *state) string {
			return table + "/k: tail " + s.tailID + " lock held by completed intent " + s.done
		}},
		{"leaked log row", func(s *state) error {
			// A GC bug: the intent goes, its read log stays.
			return s.f.store.Delete("w.intent", dynamo.HK(dynamo.S(s.done)), nil)
		}, func(s *state) string {
			return "w.readlog: log row for collected intent " + s.done + " leaked"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.fn("w", counterBody, "counter")
			for i := 0; i < 10; i++ { // three rows at cap 4: 4, 4, 2
				f.mustInvoke("w", dynamo.S("k"))
			}
			rt := f.rts["w"]
			if err := Fsck(rt); err != nil {
				t.Fatalf("clean state flagged: %v", err)
			}
			s := &state{f: f, chain: chainOrder(scanChain(t, f.store, table))}
			if len(s.chain) != 3 {
				t.Fatalf("test setup: chain %v, want three rows", s.chain)
			}
			s.tailID = s.chain[2]
			items, _ := f.store.Scan("w.intent", dynamo.QueryOpts{})
			s.done = items[0][attrInstanceID].Str()
			if err := tc.plant(s); err != nil {
				t.Fatal(err)
			}
			want := "core: fsck w: 1 problems:\n  " + tc.want(s)
			if err := Fsck(rt); err == nil || err.Error() != want {
				t.Errorf("fsck = %v\nwant %s", err, want)
			}
		})
	}
}

// scanChain returns key "k"'s rows of a DAAL table, by row id.
func scanChain(t *testing.T, store storage.Backend, table string) map[string]daalRow {
	t.Helper()
	items, err := store.Scan(table, dynamo.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]daalRow)
	for _, it := range items {
		if r := decodeDAALRow(it); r.key == "k" {
			rows[r.rowID] = r
		}
	}
	return rows
}

func TestFsckBaselineIsVacuous(t *testing.T) {
	f := newFixture(t, withMode(ModeBaseline))
	f.fn("w", counterBody, "counter")
	f.mustInvoke("w", dynamo.S("k"))
	if err := Fsck(f.rts["w"]); err != nil {
		t.Errorf("baseline fsck: %v", err)
	}
}
