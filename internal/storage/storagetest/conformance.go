// Package storagetest pins every storage.Backend implementation to the
// same observable semantics: Run is the conformance suite (condition
// evaluation and failure identities, upsert behavior, query/scan ordering
// and snapshot consistency, secondary-index ordering, TransactWrite
// atomicity, size caps, concurrent conditional safety, and commit-stream
// watch semantics — see watch.go), and Open is the
// backend-matrix seam — test harnesses build their stores through it, and
// the BELDI_BACKEND environment variable swaps the in-memory dynamo store
// for the durable walstore, turning every existing crash-sweep test into a
// restart-recovery test without touching the test itself.
package storagetest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// Opener builds a fresh, empty backend for one subtest. Cleanup runs via
// tb.Cleanup inside the opener.
type Opener func(tb testing.TB) storage.Backend

// Run exercises the full conformance suite against backends built by open.
// Every subtest gets a fresh backend.
func Run(t *testing.T, open Opener) {
	sub := func(name string, f func(t *testing.T, b storage.Backend)) {
		t.Run(name, func(t *testing.T) { f(t, open(t)) })
	}
	sub("TableLifecycle", testTableLifecycle)
	sub("ConditionSemantics", testConditionSemantics)
	sub("UpdateUpsert", testUpdateUpsert)
	sub("DeleteSemantics", testDeleteSemantics)
	sub("QueryOrdering", testQueryOrdering)
	sub("IndexOrdering", testIndexOrdering)
	sub("ScanSnapshot", testScanSnapshot)
	sub("TransactWriteAtomicity", testTransactWriteAtomicity)
	sub("TransactConditionCheck", testTransactConditionCheck)
	sub("ItemSizeCap", testItemSizeCap)
	sub("ErrorIdentities", testErrorIdentities)
	sub("ConcurrentConditional", testConcurrentConditional)
	sub("WatchWakeOnCommit", testWatchWakeOnCommit)
	sub("WatchNoMissedCommit", testWatchNoMissedCommit)
	sub("WatchHashFilter", testWatchHashFilter)
	sub("WatchWaitSemantics", testWatchWaitSemantics)
	sub("WatchCloseSemantics", testWatchCloseSemantics)
	sub("WatchBufferOverflow", testWatchBufferOverflow)
	if simSection != nil {
		t.Run("SimInterleavings", func(t *testing.T) { simSection(t, open) })
	} else {
		t.Log("simulator conformance section inactive: blank-import repro/internal/sim to enable")
	}
}

// simSection is the simulator-backed conformance section: seeded
// adversarial interleavings and delay schedules over conditional writes and
// TransactWrite, with replay equality. It is registered by
// repro/internal/sim's init rather than imported — several packages'
// in-package tests import storagetest while the simulator imports those
// packages, so a direct import would cycle. Conformance callers
// blank-import the simulator to activate it.
var simSection func(t *testing.T, open Opener)

// RegisterSimSection installs the simulator-backed section Run executes.
func RegisterSimSection(fn func(t *testing.T, open Opener)) { simSection = fn }

func mustCreate(t *testing.T, b storage.Backend, s storage.Schema) {
	t.Helper()
	if err := b.CreateTable(s); err != nil {
		t.Fatalf("CreateTable %s: %v", s.Name, err)
	}
}

func put(t *testing.T, b storage.Backend, table string, it storage.Item) {
	t.Helper()
	if err := b.Put(table, it, nil); err != nil {
		t.Fatalf("Put %s %v: %v", table, it, err)
	}
}

// testTableLifecycle: creation, duplicate detection, deletion, and the
// unknown-table / unknown-index error identities.
func testTableLifecycle(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "a", HashKey: "K"})
	mustCreate(t, b, storage.Schema{Name: "z", HashKey: "K"})
	if err := b.CreateTable(storage.Schema{Name: "a", HashKey: "K"}); !errors.Is(err, storage.ErrTableExists) {
		t.Errorf("duplicate CreateTable: %v", err)
	}
	if names := b.TableNames(); len(names) != 2 || names[0] != "a" || names[1] != "z" {
		t.Errorf("TableNames = %v", names)
	}
	if _, _, err := b.Get("nope", dynamo.HK(dynamo.S("x"))); !errors.Is(err, storage.ErrNoSuchTable) {
		t.Errorf("Get on missing table: %v", err)
	}
	if _, err := b.QueryIndex("a", "nope", dynamo.S("x"), storage.QueryOpts{}); !errors.Is(err, storage.ErrNoSuchIndex) {
		t.Errorf("QueryIndex on missing index: %v", err)
	}
	if err := b.DeleteTable("a"); err != nil {
		t.Fatalf("DeleteTable: %v", err)
	}
	if err := b.DeleteTable("a"); !errors.Is(err, storage.ErrNoSuchTable) {
		t.Errorf("double DeleteTable: %v", err)
	}
	if n, err := b.TableItemCount("z"); err != nil || n != 0 {
		t.Errorf("empty table count = %d (%v)", n, err)
	}
	if sh, err := b.TableShards("z"); err != nil || sh < 1 {
		t.Errorf("TableShards = %d (%v)", sh, err)
	}
	if _, err := b.TableSchema("nope"); !errors.Is(err, storage.ErrNoSuchTable) {
		t.Errorf("TableSchema on missing table: %v", err)
	}
	sch, err := b.TableSchema("z")
	if err != nil || sch.Name != "z" || sch.HashKey != "K" || sch.Shards < 1 {
		t.Errorf("TableSchema(z) = %+v (%v)", sch, err)
	}
}

// testConditionSemantics: conditions evaluate against the current row (or
// an empty item for absent rows), failures are ErrConditionFailed, state is
// untouched on failure, and the CondFailures metric counts them.
func testConditionSemantics(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	key := dynamo.HK(dynamo.S("a"))

	// Conditions against the absent row: attribute_not_exists passes,
	// equality fails.
	if err := b.Put("t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)},
		dynamo.NotExists(dynamo.A("K"))); err != nil {
		t.Fatalf("not-exists put on absent row: %v", err)
	}
	before := b.Metrics().Snapshot()
	err := b.Put("t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(2)},
		dynamo.NotExists(dynamo.A("K")))
	if !errors.Is(err, storage.ErrConditionFailed) {
		t.Fatalf("not-exists put on present row: %v", err)
	}
	if d := b.Metrics().Snapshot().Sub(before); d.CondFailures != 1 {
		t.Errorf("CondFailures delta = %d, want 1", d.CondFailures)
	}
	it, ok, err := b.Get("t", key)
	if err != nil || !ok || it["V"].Int() != 1 {
		t.Errorf("row after failed put = %v (ok=%v err=%v)", it, ok, err)
	}

	// Passing condition updates the row.
	if err := b.Put("t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(5)},
		dynamo.Eq(dynamo.A("V"), dynamo.NInt(1))); err != nil {
		t.Fatalf("eq put: %v", err)
	}
	// Failed Update leaves the row alone.
	err = b.Update("t", key, dynamo.Gt(dynamo.A("V"), dynamo.NInt(10)), dynamo.Add(dynamo.A("V"), 1))
	if !errors.Is(err, storage.ErrConditionFailed) {
		t.Fatalf("gt update: %v", err)
	}
	it, _, _ = b.Get("t", key)
	if it["V"].Int() != 5 {
		t.Errorf("V after failed update = %v, want 5", it["V"])
	}
}

// testUpdateUpsert: Update on a missing row materializes it with key
// attributes (when the condition passes against the absent row).
func testUpdateUpsert(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K", SortKey: "S"})
	key := dynamo.HSK(dynamo.S("h"), dynamo.NInt(3))
	if err := b.Update("t", key, nil, dynamo.Add(dynamo.A("N"), 2), dynamo.Set(dynamo.A("Tag"), dynamo.S("x"))); err != nil {
		t.Fatalf("upsert update: %v", err)
	}
	it, ok, err := b.Get("t", key)
	if err != nil || !ok {
		t.Fatalf("upserted row missing: %v %v", ok, err)
	}
	if it["K"].Str() != "h" || it["S"].Int() != 3 || it["N"].Int() != 2 || it["Tag"].Str() != "x" {
		t.Errorf("upserted row = %v", it)
	}
	// Map-path set, then remove.
	if err := b.Update("t", key, nil, dynamo.Set(dynamo.AK("M", "k1"), dynamo.NInt(9))); err != nil {
		t.Fatalf("map set: %v", err)
	}
	if err := b.Update("t", key, nil, dynamo.Remove(dynamo.A("Tag"))); err != nil {
		t.Fatalf("remove: %v", err)
	}
	it, _, _ = b.Get("t", key)
	if v, ok := it["M"].MapGet("k1"); !ok || v.Int() != 9 {
		t.Errorf("map entry = %v (ok=%v)", v, ok)
	}
	if _, exists := it["Tag"]; exists {
		t.Errorf("removed attribute survived: %v", it)
	}
}

// testDeleteSemantics: conditional delete, and deleting an absent row with
// a passing condition is a no-op.
func testDeleteSemantics(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	put(t, b, "t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)})
	if err := b.Delete("t", dynamo.HK(dynamo.S("missing")), nil); err != nil {
		t.Errorf("delete of absent row: %v", err)
	}
	err := b.Delete("t", dynamo.HK(dynamo.S("a")), dynamo.Eq(dynamo.A("V"), dynamo.NInt(2)))
	if !errors.Is(err, storage.ErrConditionFailed) {
		t.Errorf("conditional delete mismatch: %v", err)
	}
	if err := b.Delete("t", dynamo.HK(dynamo.S("a")), dynamo.Eq(dynamo.A("V"), dynamo.NInt(1))); err != nil {
		t.Errorf("conditional delete: %v", err)
	}
	if _, ok, _ := b.Get("t", dynamo.HK(dynamo.S("a"))); ok {
		t.Error("row survived delete")
	}
}

// testQueryOrdering: partition queries return sort-key order, honor
// Descending, Limit (applied after filtering), Filter, and Projection.
func testQueryOrdering(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K", SortKey: "S"})
	for _, s := range []int64{5, 1, 9, 3, 7} {
		put(t, b, "t", storage.Item{"K": dynamo.S("p"), "S": dynamo.NInt(s), "V": dynamo.NInt(s * 10), "Pad": dynamo.S("xx")})
	}
	put(t, b, "t", storage.Item{"K": dynamo.S("other"), "S": dynamo.NInt(2), "V": dynamo.NInt(0)})

	rows, err := b.Query("t", dynamo.S("p"), storage.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []int64{1, 3, 5, 7, 9}
	if len(rows) != len(wantOrder) {
		t.Fatalf("rows = %d, want %d", len(rows), len(wantOrder))
	}
	for i, w := range wantOrder {
		if rows[i]["S"].Int() != w {
			t.Fatalf("ascending order[%d] = %v, want %d", i, rows[i]["S"], w)
		}
	}
	rows, _ = b.Query("t", dynamo.S("p"), storage.QueryOpts{Descending: true, Limit: 2})
	if len(rows) != 2 || rows[0]["S"].Int() != 9 || rows[1]["S"].Int() != 7 {
		t.Errorf("descending limit 2: %v", rows)
	}
	rows, _ = b.Query("t", dynamo.S("p"), storage.QueryOpts{
		Filter:     dynamo.Gt(dynamo.A("V"), dynamo.NInt(30)),
		Projection: []storage.Path{dynamo.A("S")},
		Limit:      2,
	})
	if len(rows) != 2 || rows[0]["S"].Int() != 5 || rows[1]["S"].Int() != 7 {
		t.Errorf("filtered projected query: %v", rows)
	}
	for _, r := range rows {
		if _, has := r["Pad"]; has {
			t.Errorf("projection leaked attributes: %v", r)
		}
	}
}

// testIndexOrdering: secondary-index queries order by the index sort
// attribute; rows missing the index hash attribute stay out of the index.
func testIndexOrdering(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{
		Name: "t", HashKey: "K",
		Indexes: []storage.IndexSchema{{Name: "by-g", HashKey: "G", SortKey: "R"}},
	})
	put(t, b, "t", storage.Item{"K": dynamo.S("a"), "G": dynamo.S("g1"), "R": dynamo.NInt(3)})
	put(t, b, "t", storage.Item{"K": dynamo.S("b"), "G": dynamo.S("g1"), "R": dynamo.NInt(1)})
	put(t, b, "t", storage.Item{"K": dynamo.S("c"), "G": dynamo.S("g2"), "R": dynamo.NInt(2)})
	put(t, b, "t", storage.Item{"K": dynamo.S("d")}) // sparse: no G

	rows, err := b.QueryIndex("t", "by-g", dynamo.S("g1"), storage.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["K"].Str() != "b" || rows[1]["K"].Str() != "a" {
		t.Errorf("index query: %v", rows)
	}
	if rows, _ := b.QueryIndex("t", "by-g", dynamo.S("gX"), storage.QueryOpts{}); len(rows) != 0 {
		t.Errorf("index query on empty group: %v", rows)
	}
}

// testScanSnapshot: Scan returns every row in deterministic order, and a
// scan racing writers never observes a torn multi-row transaction.
func testScanSnapshot(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	const rows = 10
	for i := 0; i < rows; i++ {
		put(t, b, "t", storage.Item{"K": dynamo.S(fmt.Sprintf("k%02d", i)), "V": dynamo.NInt(0)})
	}
	got, err := b.Scan("t", storage.QueryOpts{})
	if err != nil || len(got) != rows {
		t.Fatalf("scan = %d rows (%v)", len(got), err)
	}
	again, _ := b.Scan("t", storage.QueryOpts{})
	for i := range got {
		if got[i]["K"].Str() != again[i]["K"].Str() {
			t.Fatalf("scan order not deterministic at %d: %v vs %v", i, got[i], again[i])
		}
	}

	// Writers bump pairs (k00,k01) atomically; every scan must see the pair
	// equal — the consistent-snapshot property Beldi needs (§4.1).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := b.TransactWrite([]storage.TxOp{
				{Table: "t", Key: dynamo.HK(dynamo.S("k00")), Updates: []storage.Update{dynamo.Set(dynamo.A("V"), dynamo.NInt(int64(i)))}},
				{Table: "t", Key: dynamo.HK(dynamo.S("k01")), Updates: []storage.Update{dynamo.Set(dynamo.A("V"), dynamo.NInt(int64(i)))}},
			})
			if err != nil {
				t.Errorf("txn writer: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		snap, err := b.Scan("t", storage.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		var v0, v1 int64 = -1, -1
		for _, r := range snap {
			switch r["K"].Str() {
			case "k00":
				v0 = r["V"].Int()
			case "k01":
				v1 = r["V"].Int()
			}
		}
		if v0 != v1 {
			t.Fatalf("scan observed torn transaction: k00=%d k01=%d", v0, v1)
		}
	}
	close(stop)
	wg.Wait()
}

// testTransactWriteAtomicity: all-or-nothing application, per-op reasons on
// cancellation, errors.Is(ErrConditionFailed), and duplicate-target
// rejection.
func testTransactWriteAtomicity(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "x", HashKey: "K"})
	mustCreate(t, b, storage.Schema{Name: "y", HashKey: "K"})
	put(t, b, "x", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)})

	// One failing condition cancels every op.
	err := b.TransactWrite([]storage.TxOp{
		{Table: "x", Key: dynamo.HK(dynamo.S("a")), Updates: []storage.Update{dynamo.Add(dynamo.A("V"), 10)}},
		{Table: "y", Cond: dynamo.Exists(dynamo.A("K")), Key: dynamo.HK(dynamo.S("b")),
			Updates: []storage.Update{dynamo.Add(dynamo.A("V"), 1)}},
	})
	if !errors.Is(err, storage.ErrConditionFailed) {
		t.Fatalf("canceled txn: %v", err)
	}
	var tce *storage.TxCanceledError
	if !errors.As(err, &tce) {
		t.Fatalf("not a TxCanceledError: %T", err)
	}
	if len(tce.Reasons) != 2 || tce.Reasons[0] != nil || tce.Reasons[1] == nil {
		t.Errorf("reasons = %v", tce.Reasons)
	}
	if it, _, _ := b.Get("x", dynamo.HK(dynamo.S("a"))); it["V"].Int() != 1 {
		t.Errorf("canceled txn mutated x/a: %v", it)
	}
	if _, ok, _ := b.Get("y", dynamo.HK(dynamo.S("b"))); ok {
		t.Error("canceled txn created y/b")
	}

	// A passing transaction applies across tables: put + update + delete.
	put(t, b, "y", storage.Item{"K": dynamo.S("gone")})
	if err := b.TransactWrite([]storage.TxOp{
		{Table: "x", Put: storage.Item{"K": dynamo.S("new"), "V": dynamo.NInt(7)}},
		{Table: "x", Key: dynamo.HK(dynamo.S("a")), Cond: dynamo.Eq(dynamo.A("V"), dynamo.NInt(1)),
			Updates: []storage.Update{dynamo.Add(dynamo.A("V"), 100)}},
		{Table: "y", Key: dynamo.HK(dynamo.S("gone")), Delete: true},
	}); err != nil {
		t.Fatalf("txn: %v", err)
	}
	if it, _, _ := b.Get("x", dynamo.HK(dynamo.S("new"))); it["V"].Int() != 7 {
		t.Errorf("txn put missing: %v", it)
	}
	if it, _, _ := b.Get("x", dynamo.HK(dynamo.S("a"))); it["V"].Int() != 101 {
		t.Errorf("txn update: %v", it)
	}
	if _, ok, _ := b.Get("y", dynamo.HK(dynamo.S("gone"))); ok {
		t.Error("txn delete did not apply")
	}

	// Duplicate targets are rejected.
	err = b.TransactWrite([]storage.TxOp{
		{Table: "x", Key: dynamo.HK(dynamo.S("a")), Updates: []storage.Update{dynamo.Add(dynamo.A("V"), 1)}},
		{Table: "x", Key: dynamo.HK(dynamo.S("a")), Updates: []storage.Update{dynamo.Add(dynamo.A("V"), 1)}},
	})
	if err == nil {
		t.Error("duplicate-target txn accepted")
	}
}

// testTransactConditionCheck: a Check op asserts its condition atomically
// with the transaction's writes and never mutates its own row — DynamoDB's
// ConditionCheck, the fencing primitive the cluster runtime claims intents
// with.
func testTransactConditionCheck(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "auth", HashKey: "K"})
	mustCreate(t, b, storage.Schema{Name: "work", HashKey: "K"})
	put(t, b, "auth", storage.Item{"K": dynamo.S("p0"), "Owner": dynamo.S("w1"), "Epoch": dynamo.NInt(3)})
	put(t, b, "work", storage.Item{"K": dynamo.S("job"), "Claimed": dynamo.Bool(false)})

	fence := func(owner string, epoch int64) storage.TxOp {
		return storage.TxOp{
			Table: "auth", Key: dynamo.HK(dynamo.S("p0")),
			Cond: dynamo.And(
				dynamo.Eq(dynamo.A("Owner"), dynamo.S(owner)),
				dynamo.Eq(dynamo.A("Epoch"), dynamo.NInt(epoch)),
			),
			Check: true,
		}
	}
	claim := storage.TxOp{
		Table: "work", Key: dynamo.HK(dynamo.S("job")),
		Cond:    dynamo.Eq(dynamo.A("Claimed"), dynamo.Bool(false)),
		Updates: []storage.Update{dynamo.Set(dynamo.A("Claimed"), dynamo.Bool(true))},
	}

	// A stale fence rejects the whole transaction and mutates nothing.
	err := b.TransactWrite([]storage.TxOp{fence("w1", 2), claim})
	if !errors.Is(err, storage.ErrConditionFailed) {
		t.Fatalf("stale fence: %v", err)
	}
	var tce *storage.TxCanceledError
	if !errors.As(err, &tce) || len(tce.Reasons) != 2 || tce.Reasons[0] == nil || tce.Reasons[1] != nil {
		t.Fatalf("stale fence reasons = %+v", err)
	}
	if it, _, _ := b.Get("work", dynamo.HK(dynamo.S("job"))); it["Claimed"].BoolVal() {
		t.Error("fenced transaction claimed the work anyway")
	}

	// A current fence lets the claim through and leaves the checked row
	// byte-identical.
	authBefore, _, _ := b.Get("auth", dynamo.HK(dynamo.S("p0")))
	if err := b.TransactWrite([]storage.TxOp{fence("w1", 3), claim}); err != nil {
		t.Fatalf("valid fence: %v", err)
	}
	if it, _, _ := b.Get("work", dynamo.HK(dynamo.S("job"))); !it["Claimed"].BoolVal() {
		t.Error("fenced claim did not apply")
	}
	authAfter, _, _ := b.Get("auth", dynamo.HK(dynamo.S("p0")))
	if len(authAfter) != len(authBefore) {
		t.Errorf("Check mutated its row: %v → %v", authBefore, authAfter)
	}
	for k, v := range authBefore {
		if !v.Equal(authAfter[k]) {
			t.Errorf("Check mutated attribute %s: %v → %v", k, v, authAfter[k])
		}
	}

	// A Check against an absent row evaluates like any condition (against
	// the empty item) and must not create the row.
	if err := b.TransactWrite([]storage.TxOp{
		{Table: "auth", Key: dynamo.HK(dynamo.S("ghost")),
			Cond: dynamo.NotExists(dynamo.A("K")), Check: true},
		{Table: "work", Put: storage.Item{"K": dynamo.S("job2")}},
	}); err != nil {
		t.Fatalf("absent-row check: %v", err)
	}
	if _, ok, _ := b.Get("auth", dynamo.HK(dynamo.S("ghost"))); ok {
		t.Error("Check materialized an absent row")
	}
}

// testItemSizeCap: rows past MaxItemSize are rejected with ErrItemTooLarge
// and the row stays unchanged.
func testItemSizeCap(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K", MaxItemSize: 64})
	big := make([]byte, 128)
	err := b.Put("t", storage.Item{"K": dynamo.S("a"), "B": dynamo.Bytes(big)}, nil)
	if !errors.Is(err, storage.ErrItemTooLarge) {
		t.Fatalf("oversized put: %v", err)
	}
	put(t, b, "t", storage.Item{"K": dynamo.S("a"), "B": dynamo.Bytes(big[:8])})
	err = b.Update("t", dynamo.HK(dynamo.S("a")), nil, dynamo.Set(dynamo.A("B"), dynamo.Bytes(big)))
	if !errors.Is(err, storage.ErrItemTooLarge) {
		t.Fatalf("oversized update: %v", err)
	}
	it, _, _ := b.Get("t", dynamo.HK(dynamo.S("a")))
	if len(it["B"].BytesVal()) != 8 {
		t.Errorf("row changed by rejected update: %v", it)
	}
}

// testErrorIdentities: every backend returns error *values* that satisfy
// errors.Is against the shared storage sentinels (and errors.As for
// TxCanceledError) — not merely errors with similar messages. This pins
// backends that cross a serialization boundary (the remote client, journal
// replayers) to exact identity mapping, because callers above the seam
// branch on these identities for fencing and exactly-once decisions.
func testErrorIdentities(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K", MaxItemSize: 64})
	put(t, b, "t", storage.Item{"K": dynamo.S("a"), "V": dynamo.NInt(1)})

	check := func(what string, err, sentinel error) {
		t.Helper()
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: got %v (%T), want errors.Is(err, %v)", what, err, err, sentinel)
		}
	}
	check("duplicate CreateTable",
		b.CreateTable(storage.Schema{Name: "t", HashKey: "K"}), storage.ErrTableExists)
	check("DeleteTable on missing table",
		b.DeleteTable("nope"), storage.ErrNoSuchTable)
	_, _, getErr := b.Get("nope", dynamo.HK(dynamo.S("x")))
	check("Get on missing table", getErr, storage.ErrNoSuchTable)
	_, qiErr := b.QueryIndex("t", "nope", dynamo.S("x"), storage.QueryOpts{})
	check("QueryIndex on missing index", qiErr, storage.ErrNoSuchIndex)
	check("conditional Put mismatch",
		b.Put("t", storage.Item{"K": dynamo.S("a")}, dynamo.NotExists(dynamo.A("K"))),
		storage.ErrConditionFailed)
	check("conditional Update mismatch",
		b.Update("t", dynamo.HK(dynamo.S("a")), dynamo.Eq(dynamo.A("V"), dynamo.NInt(9)),
			dynamo.Add(dynamo.A("V"), 1)),
		storage.ErrConditionFailed)
	check("conditional Delete mismatch",
		b.Delete("t", dynamo.HK(dynamo.S("a")), dynamo.Eq(dynamo.A("V"), dynamo.NInt(9))),
		storage.ErrConditionFailed)
	check("oversized Put",
		b.Put("t", storage.Item{"K": dynamo.S("big"), "B": dynamo.Bytes(make([]byte, 128))}, nil),
		storage.ErrItemTooLarge)

	// A canceled transaction is all three at once: errors.Is-able as a
	// condition failure, errors.As-able to TxCanceledError, and carries
	// positional reasons that are themselves Is-able.
	txErr := b.TransactWrite([]storage.TxOp{
		{Table: "t", Key: dynamo.HK(dynamo.S("other")), Updates: []storage.Update{dynamo.Add(dynamo.A("V"), 1)}},
		{Table: "t", Key: dynamo.HK(dynamo.S("a")), Cond: dynamo.NotExists(dynamo.A("K")), Check: true},
	})
	check("canceled TransactWrite", txErr, storage.ErrConditionFailed)
	var tce *storage.TxCanceledError
	if !errors.As(txErr, &tce) {
		t.Fatalf("canceled TransactWrite: got %T, want errors.As TxCanceledError", txErr)
	}
	if len(tce.Reasons) != 2 || tce.Reasons[0] != nil || !errors.Is(tce.Reasons[1], storage.ErrConditionFailed) {
		t.Errorf("canceled TransactWrite reasons = %v, want [nil, ErrConditionFailed]", tce.Reasons)
	}
}

// testConcurrentConditional: racing conditional claims on one row admit
// exactly one winner per round — the store-level mutual exclusion Beldi's
// intent registration and lock protocol are built on.
func testConcurrentConditional(t *testing.T, b storage.Backend) {
	mustCreate(t, b, storage.Schema{Name: "t", HashKey: "K"})
	const rounds, contenders = 20, 8
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("k%02d", r)
		var wg sync.WaitGroup
		wins := make(chan int, contenders)
		for c := 0; c < contenders; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				err := b.Put("t", storage.Item{"K": dynamo.S(key), "Owner": dynamo.NInt(int64(c))},
					dynamo.NotExists(dynamo.A("K")))
				if err == nil {
					wins <- c
				} else if !errors.Is(err, storage.ErrConditionFailed) {
					t.Errorf("claim: %v", err)
				}
			}(c)
		}
		wg.Wait()
		close(wins)
		var winners []int
		for w := range wins {
			winners = append(winners, w)
		}
		if len(winners) != 1 {
			t.Fatalf("round %d: %d winners", r, len(winners))
		}
		it, ok, _ := b.Get("t", dynamo.HK(dynamo.S(key)))
		if !ok || it["Owner"].Int() != int64(winners[0]) {
			t.Fatalf("round %d: row %v, winner %d", r, it, winners[0])
		}
	}
}
