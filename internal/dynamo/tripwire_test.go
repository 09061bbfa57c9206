package dynamo_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/apps/fanout"
	"repro/internal/apps/orders"
	"repro/internal/apps/travel"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// The store shares values with its callers instead of copying them, so
// "nobody writes a value after building it" is load-bearing. These tests run
// with the tripwire on (verify.go): every row is fingerprinted at install and
// re-verified at every touch, and a mismatch panics.

func tripwire(t *testing.T) {
	t.Helper()
	t.Cleanup(dynamo.SetVerifyShared(true))
}

func logStore(t *testing.T, entries int) *dynamo.Store {
	t.Helper()
	s := dynamo.NewStore()
	s.MustCreateTable(dynamo.Schema{Name: "t", HashKey: "K"})
	m := make(map[string]dynamo.Value, entries)
	for i := 0; i < entries; i++ {
		m[fmt.Sprintf("k%d", i)] = dynamo.Bool(true)
	}
	if err := s.Put("t", dynamo.Item{"K": dynamo.S("a"), "V": dynamo.N(1), "Log": dynamo.M(m)}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTripwireCatchesAWriterThatKeepsItsMap is the rule's failing example: a
// writer hands a map to the store, keeps the byte slice inside it, and writes
// to that later. M copies the map itself (see TestEditingTheMapAfterInstall),
// but not the lists and byte slices its values hold, which stay shared.
// Whatever next touches the row reports it, naming table and key.
func TestTripwireCatchesAWriterThatKeepsItsMap(t *testing.T) {
	tripwire(t)
	key := dynamo.HK(dynamo.S("a"))
	installs := map[string]func(*dynamo.Store, map[string]dynamo.Value) error{
		"Put": func(s *dynamo.Store, m map[string]dynamo.Value) error {
			return s.Put("t", dynamo.Item{"K": dynamo.S("a"), "Log": dynamo.M(m)}, nil)
		},
		"Set": func(s *dynamo.Store, m map[string]dynamo.Value) error {
			return s.Update("t", key, nil, dynamo.Set(dynamo.A("Log"), dynamo.M(m)))
		},
		"TransactWrite": func(s *dynamo.Store, m map[string]dynamo.Value) error {
			return s.TransactWrite([]dynamo.TxOp{{Table: "t", Put: dynamo.Item{"K": dynamo.S("a"), "Log": dynamo.M(m)}}})
		},
	}
	touches := map[string]func(*dynamo.Store){
		"get":     func(s *dynamo.Store) { s.Get("t", key) },
		"query":   func(s *dynamo.Store) { s.Query("t", dynamo.S("a"), dynamo.QueryOpts{}) },
		"scan":    func(s *dynamo.Store) { s.Scan("t", dynamo.QueryOpts{}) },
		"replace": func(s *dynamo.Store) { s.Put("t", dynamo.Item{"K": dynamo.S("a")}, nil) },
		"update":  func(s *dynamo.Store) { s.Update("t", key, nil, dynamo.Add(dynamo.A("N"), 1)) },
		"delete":  func(s *dynamo.Store) { s.Delete("t", key, nil) },
	}
	for iname, install := range installs {
		for tname, touch := range touches {
			t.Run(iname+"/"+tname, func(t *testing.T) {
				s := dynamo.NewStore()
				s.MustCreateTable(dynamo.Schema{Name: "t", HashKey: "K"})
				b := []byte("payload")
				m := map[string]dynamo.Value{"k0": dynamo.Bool(true), "k1": dynamo.Bytes(b)}
				if err := install(s, m); err != nil {
					t.Fatal(err)
				}
				touch(s) // an honest writer: nothing to report
				if err := install(s, m); err != nil {
					t.Fatal(err)
				}
				b[0] = 'P' // the bug
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, `table t key "a"`) || !strings.Contains(msg, "written after it was installed") {
						t.Errorf("touching the row after its bytes were written: %s", msg)
					}
				}()
				touch(s)
			})
		}
	}
}

// TestEditingTheMapAfterInstall: a caller that edits the Go map it passed to
// M, or the Item it passed to Put, after the call changes nothing the store
// holds — both are copied at the call — so the tripwire has nothing to report
// and the row reads back as installed.
func TestEditingTheMapAfterInstall(t *testing.T) {
	tripwire(t)
	s := dynamo.NewStore()
	s.MustCreateTable(dynamo.Schema{Name: "t", HashKey: "K"})
	key := dynamo.HK(dynamo.S("a"))
	m := map[string]dynamo.Value{"k0": dynamo.Bool(true), "k1": dynamo.N(1)}
	item := dynamo.Item{"K": dynamo.S("a"), "Log": dynamo.M(m), "V": dynamo.S("v")}
	want := dynamo.Fields(dynamo.F("K", dynamo.S("a")), dynamo.F("Log", dynamo.Fields(dynamo.F("k0", dynamo.Bool(true)), dynamo.F("k1", dynamo.N(1)))), dynamo.F("V", dynamo.S("v")))
	if err := s.Put("t", item, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Update("t", key, nil, dynamo.Set(dynamo.A("Log"), dynamo.M(m))); err != nil {
		t.Fatal(err)
	}
	m["k1"] = dynamo.N(2)
	m["k2"] = dynamo.S("late")
	delete(m, "k0")
	item["V"] = dynamo.S("edited")
	delete(item, "Log")
	got, ok, err := s.Get("t", key)
	if err != nil || !ok || !dynamo.M(got).Equal(want) {
		t.Errorf("row after its caller edited the map and the item = %v, want %v (%v)", got, want, err)
	}
}

// TestProjectingAMapBesideItsEntry is the hazard sharing opened: a projection
// naming a map attribute and then one of its entries must build the entry in
// a map of its own, not write it into the stored map it has just been handed
// — here while another goroutine appends to that map.
func TestProjectingAMapBesideItsEntry(t *testing.T) {
	tripwire(t)
	s := logStore(t, 16)
	key := dynamo.HK(dynamo.S("a"))
	proj := []dynamo.Path{dynamo.A("Log"), dynamo.AK("Log", "k3")}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				it, ok, err := s.GetProj("t", key, proj)
				if err != nil || !ok || it["Log"].MapLen() < 16 {
					t.Errorf("GetProj = %v %v %v", it, ok, err)
					return
				}
				rows, err := s.Query("t", dynamo.S("a"), dynamo.QueryOpts{Projection: proj})
				if err != nil || len(rows) != 1 || !rows[0]["Log"].Map()["k3"].BoolVal() {
					t.Errorf("Query = %v %v", rows, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if err := s.Update("t", key, nil, dynamo.Set(dynamo.AK("Log", fmt.Sprintf("w%d", i)), dynamo.Bool(true))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if it, _, _ := s.Get("t", key); it["Log"].MapLen() != 316 {
		t.Errorf("log has %d entries, want 316", it["Log"].MapLen())
	}
}

// TestRefusedWritesNeverBuiltOnTheRow: a failed condition, a cancelled
// transaction and an over-size update leave the row exactly as it was — the
// next row is built beside the current one, so there is nothing to undo, and
// the fingerprint taken at install still holds.
func TestRefusedWritesNeverBuiltOnTheRow(t *testing.T) {
	tripwire(t)
	s := dynamo.NewStore()
	s.MustCreateTable(dynamo.Schema{Name: "t", HashKey: "K", MaxItemSize: 256})
	key := dynamo.HK(dynamo.S("a"))
	want := dynamo.Item{"K": dynamo.S("a"), "V": dynamo.N(1), "Log": dynamo.M(map[string]dynamo.Value{"k0": dynamo.Bool(true)})}
	if err := s.Put("t", want, nil); err != nil {
		t.Fatal(err)
	}
	grow := []dynamo.Update{dynamo.Add(dynamo.A("V"), 1), dynamo.Set(dynamo.AK("Log", "k1"), dynamo.Bool(false))}

	err := s.Update("t", key, dynamo.Eq(dynamo.A("V"), dynamo.N(7)), grow...)
	if !errors.Is(err, dynamo.ErrConditionFailed) {
		t.Errorf("guarded update: %v", err)
	}
	err = s.TransactWrite([]dynamo.TxOp{
		{Table: "t", Key: key, Updates: grow},
		{Table: "t", Key: dynamo.HK(dynamo.S("b")), Cond: dynamo.Exists(dynamo.A("K")), Updates: grow[:1]},
	})
	var canceled *dynamo.TxCanceledError
	if !errors.As(err, &canceled) {
		t.Errorf("transaction with a failing guard: %v", err)
	}
	big := dynamo.Set(dynamo.AK("Log", "big"), dynamo.S(strings.Repeat("x", 300)))
	if err := s.Update("t", key, nil, grow[0], big); !errors.Is(err, dynamo.ErrItemTooLarge) {
		t.Errorf("over-size update: %v", err)
	}

	got, ok, err := s.Get("t", key)
	if err != nil || !ok || !dynamo.M(got).Equal(dynamo.M(want)) {
		t.Errorf("row after three refused writes = %v, want %v (%v)", got, want, err)
	}
}

// TestTripwireForgetsRowsThatLeave: the fingerprints live beside the rows,
// one per live row, whichever way a row comes and goes — put, replacing put,
// upsert and update, transactional put and delete — so cycles of puts and
// deletes leave the side table empty, and every row in it is checked.
func TestTripwireForgetsRowsThatLeave(t *testing.T) {
	tripwire(t)
	s := dynamo.NewStore()
	s.MustCreateTable(dynamo.Schema{Name: "t", HashKey: "K", SortKey: "R", Shards: 4})
	const rows = 16
	key := func(i int) dynamo.Key {
		return dynamo.HSK(dynamo.S(fmt.Sprintf("k%d", i%4)), dynamo.NInt(int64(i)))
	}
	put := func(i int, v string) dynamo.Item {
		k := key(i)
		return dynamo.Item{"K": k.Hash, "R": k.Sort, "V": dynamo.S(v), "L": dynamo.L(dynamo.Bytes([]byte(v)))}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < rows; i++ {
			var err error
			switch i % 3 {
			case 0:
				err = s.Put("t", put(i, "first"), nil)
			case 1:
				err = s.Update("t", key(i), nil, dynamo.Set(dynamo.A("V"), dynamo.S("upserted")))
			default:
				err = s.TransactWrite([]dynamo.TxOp{{Table: "t", Put: put(i, "first")}})
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("t", put(i, "replaced"), nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Update("t", key(i), nil, dynamo.Add(dynamo.A("N"), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if n := s.Fingerprinted("t"); n != rows {
			t.Fatalf("round %d: %d fingerprints for %d rows", round, n, rows)
		}
		if _, err := s.Scan("t", dynamo.QueryOpts{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			var err error
			if i%2 == 0 {
				err = s.Delete("t", key(i), nil)
			} else {
				err = s.TransactWrite([]dynamo.TxOp{{Table: "t", Key: key(i), Delete: true}})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if n := s.Fingerprinted("t"); n != 0 {
			t.Fatalf("round %d: %d fingerprints left after every row was deleted", round, n)
		}
	}
}

// TestWorkloadsNeverWriteASharedValue drives the code above the store — the
// travel mix with its transactional reservations, a typed fan-out job and the
// queue-backed orders pipeline — over one tripwired store each. A layer that
// edited a value it read, or kept and edited one it wrote, panics here.
func TestWorkloadsNeverWriteASharedValue(t *testing.T) {
	tripwire(t)
	deploy := func(t *testing.T, cfg beldi.Config) *beldi.Deployment {
		d := beldi.NewDeployment(beldi.DeploymentOptions{
			Store:    dynamo.NewStore(),
			Platform: platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}}),
			Config:   cfg,
		})
		t.Cleanup(d.Stop)
		return d
	}
	settle := func(t *testing.T, d *beldi.Deployment) {
		t.Helper()
		if err := d.RunAllCollectors(); err != nil {
			t.Fatal(err)
		}
		if err := d.FsckAll(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("travel", func(t *testing.T) {
		d := deploy(t, beldi.Config{RowCap: 8, T: 100 * time.Millisecond, LockRetryMax: 300})
		app := travel.Build(d)
		app.Capacity = 50
		if err := app.Seed(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		reserves := 0
		for i := 0; i < 200; i++ {
			req := app.Request(rng)
			if req.Map()["op"].Str() == "reserve" {
				reserves++
			}
			if _, err := d.Invoke(app.Entry(), req); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		if reserves == 0 {
			t.Error("the mix made no transactional reservation")
		}
		settle(t, d)
	})

	t.Run("fanout", func(t *testing.T) {
		d := deploy(t, beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Millisecond})
		app := fanout.Build(d)
		job := fanout.Job{}
		for i := 0; i < 8; i++ {
			job.Docs = append(job.Docs, fanout.Doc{ID: fmt.Sprintf("d%d", i), Text: "the quick brown fox and the lazy dog"})
		}
		sum, err := app.Reduce.Invoke(job)
		if err != nil || sum.Docs != 8 {
			t.Fatalf("reduce = %+v, %v", sum, err)
		}
		settle(t, d)
	})

	t.Run("orders", func(t *testing.T) {
		d := deploy(t, beldi.Config{T: 50 * time.Millisecond, ICMinAge: time.Nanosecond})
		app := orders.Build(d)
		da := d.EnableDurableAsync(orders.DefaultEventOptions())
		if err := app.Seed(); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("order-%04d", i)
			req := orders.PlaceRequest(id, orders.UserID(i%orders.NumUsers), orders.ItemID(i%orders.NumItems), 1, 10)
			if _, err := d.Invoke(orders.FnFrontend, req); err != nil {
				t.Fatalf("place %s: %v", id, err)
			}
			ids = append(ids, id)
		}
		if _, err := da.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		tot, err := app.Totals(ids)
		if err != nil || tot.Shipments != len(ids) || tot.Notifications != int64(len(ids)) {
			t.Fatalf("pipeline did not complete: %+v, %v", tot, err)
		}
		settle(t, d)
	})
}
