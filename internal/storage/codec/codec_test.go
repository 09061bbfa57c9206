package codec

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dynamo"
)

// A shape is one top-level decoder paired with the encoder that undoes it.
type shape struct {
	dec func(d *Decoder) any
	enc func(e *Encoder, v any)
}

func shapeOf[T any](dec func(*Decoder) T, enc func(*Encoder, T)) shape {
	return shape{
		dec: func(d *Decoder) any { return dec(d) },
		enc: func(e *Encoder, v any) { t, _ := v.(T); enc(e, t) }, // a nil Cond is a nil any
	}
}

var shapeTable = map[string]shape{
	"Value":     shapeOf((*Decoder).Value, (*Encoder).Value),
	"Item":      shapeOf((*Decoder).Item, (*Encoder).Item),
	"Items":     shapeOf((*Decoder).Items, (*Encoder).Items),
	"Key":       shapeOf((*Decoder).Key, (*Encoder).Key),
	"Paths":     shapeOf((*Decoder).Paths, (*Encoder).Paths),
	"Schema":    shapeOf((*Decoder).Schema, (*Encoder).Schema),
	"Cond":      shapeOf((*Decoder).Cond, (*Encoder).Cond),
	"Updates":   shapeOf((*Decoder).Updates, (*Encoder).Updates),
	"QueryOpts": shapeOf((*Decoder).QueryOpts, (*Encoder).QueryOpts),
	"TxOps":     shapeOf((*Decoder).TxOps, (*Encoder).TxOps),
}

// shapes copies one value of the named shape from d to e and returns it. The
// round-trip table and FuzzDecode run their inputs through these.
var shapes = func() map[string]func(d *Decoder, e *Encoder) any {
	m := make(map[string]func(d *Decoder, e *Encoder) any)
	for name, s := range shapeTable {
		m[name] = func(d *Decoder, e *Encoder) any {
			v := s.dec(d)
			s.enc(e, v)
			return v
		}
	}
	return m
}()

// roundTrip is one row of the table: enc writes something of the named
// shape, and same decodes it back and compares by meaning.
type roundTrip struct {
	name, shape string
	enc         func(e *Encoder)
	same        func(d *Decoder) bool
}

func itemsEqual(a, b dynamo.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !w.Equal(v) {
			return false
		}
	}
	return true
}

func valueRow(name string, v dynamo.Value) roundTrip {
	return roundTrip{name, "Value",
		func(e *Encoder) { e.Value(v) },
		func(d *Decoder) bool { return d.Value().Equal(v) }}
}

// condRow re-evaluates the decoded condition against items to prove the
// rebuilt tree means what the original did.
func condRow(name string, c dynamo.Cond) roundTrip {
	probes := []dynamo.Item{{"V": dynamo.NInt(5), "Tag": dynamo.S("x")}, {}}
	return roundTrip{name, "Cond",
		func(e *Encoder) { e.Cond(c) },
		func(d *Decoder) bool {
			got := d.Cond()
			if c == nil || got == nil {
				return c == nil && got == nil
			}
			for _, it := range probes {
				if c.Eval(it) != got.Eval(it) {
					return false
				}
			}
			return true
		}}
}

func roundTrips() []roundTrip {
	nested := dynamo.M(map[string]dynamo.Value{"z": dynamo.NInt(1), "a": dynamo.M(map[string]dynamo.Value{"x": dynamo.Null})})
	item := dynamo.Item{"K": dynamo.S("k"), "V": dynamo.NInt(7), "M": nested, "L": dynamo.L(dynamo.NInt(1), dynamo.S("two"))}
	schema := dynamo.Schema{
		Name: "t", HashKey: "K", SortKey: "S", MaxItemSize: 4096, Shards: 8,
		Indexes: []dynamo.IndexSchema{{Name: "by-g", HashKey: "G", SortKey: "R"}},
	}
	bare := dynamo.Schema{Name: "tmp", HashKey: "K"}
	key := dynamo.HSK(dynamo.S("h"), dynamo.NInt(2))
	paths := []dynamo.Path{dynamo.A("V"), dynamo.AK("M", "a")}
	updates := []dynamo.Update{dynamo.Set(dynamo.AK("A", "m"), dynamo.S("v")), dynamo.Add(dynamo.A("C"), -2.5), dynamo.Remove(dynamo.A("R"))}
	opts := dynamo.QueryOpts{Filter: dynamo.Ge(dynamo.A("V"), dynamo.NInt(1)), Projection: paths, Limit: 5, Descending: true}
	txOps := []dynamo.TxOp{
		{Table: "a", Put: dynamo.Item{"K": dynamo.S("x")}},
		{Table: "b", Key: key, Cond: dynamo.Eq(dynamo.A("V"), dynamo.NInt(1)), Updates: updates},
		{Table: "c", Key: dynamo.HK(dynamo.S("k")), Delete: true},
		{Table: "d", Key: dynamo.HK(dynamo.S("k")), Cond: dynamo.Exists(dynamo.A("K")), Check: true},
	}
	sameUpdates := func(got []dynamo.Update) bool {
		if len(got) != len(updates) {
			return false
		}
		for i, u := range got {
			if u.String() != updates[i].String() {
				return false
			}
		}
		return true
	}
	return []roundTrip{
		valueRow("null", dynamo.Null),
		valueRow("empty string", dynamo.S("")),
		valueRow("string", dynamo.S("héllo")),
		valueRow("zero", dynamo.N(0)),
		valueRow("fraction", dynamo.N(-3.25)),
		valueRow("big int", dynamo.NInt(1<<50)),
		valueRow("true", dynamo.Bool(true)),
		valueRow("false", dynamo.Bool(false)),
		valueRow("bytes", dynamo.Bytes([]byte{0, 1, 2, 255})),
		valueRow("list", dynamo.L(dynamo.S("a"), dynamo.NInt(2), dynamo.L())),
		valueRow("map", nested),
		{"item", "Item", func(e *Encoder) { e.Item(item) },
			func(d *Decoder) bool { return itemsEqual(d.Item(), item) }},
		{"items", "Items", func(e *Encoder) { e.Items([]dynamo.Item{item, {}, item}) },
			func(d *Decoder) bool {
				got := d.Items()
				return len(got) == 3 && itemsEqual(got[0], item) && len(got[1]) == 0 && itemsEqual(got[2], item)
			}},
		{"key", "Key", func(e *Encoder) { e.Key(key) },
			func(d *Decoder) bool { got := d.Key(); return got.Hash.Equal(key.Hash) && got.Sort.Equal(key.Sort) }},
		{"paths", "Paths", func(e *Encoder) { e.Paths(paths) },
			func(d *Decoder) bool { return reflect.DeepEqual(d.Paths(), paths) }},
		{"no paths", "Paths", func(e *Encoder) { e.Paths(nil) },
			func(d *Decoder) bool { return d.Paths() == nil }},
		{"schema", "Schema", func(e *Encoder) { e.Schema(schema) },
			func(d *Decoder) bool { return reflect.DeepEqual(d.Schema(), schema) }},
		{"schema without indexes", "Schema", func(e *Encoder) { e.Schema(bare) },
			func(d *Decoder) bool { return reflect.DeepEqual(d.Schema(), bare) }}, // Indexes nil, not empty
		condRow("no cond", nil),
		condRow("true", dynamo.True()),
		condRow("exists", dynamo.Exists(dynamo.A("V"))),
		condRow("not exists", dynamo.NotExists(dynamo.A("Absent"))),
		condRow("eq", dynamo.Eq(dynamo.A("V"), dynamo.NInt(5))),
		condRow("ne", dynamo.Ne(dynamo.A("Tag"), dynamo.S("y"))),
		condRow("lt", dynamo.Lt(dynamo.A("V"), dynamo.NInt(9))),
		condRow("and", dynamo.And(dynamo.Exists(dynamo.A("V")), dynamo.Gt(dynamo.A("V"), dynamo.NInt(1)))),
		condRow("or", dynamo.Or(dynamo.Eq(dynamo.A("V"), dynamo.NInt(0)), dynamo.Eq(dynamo.A("Tag"), dynamo.S("x")))),
		condRow("le", dynamo.Le(dynamo.A("V"), dynamo.NInt(5))),
		condRow("ge", dynamo.Ge(dynamo.A("Tag"), dynamo.S("a"))),
		condRow("not", dynamo.Not(dynamo.Exists(dynamo.A("Absent")))),
		condRow("and of eq, not, lt", budgetCond()),
		condRow("is null or", dynamo.IsNullOr(dynamo.A("Absent"), dynamo.Eq(dynamo.A("Absent"), dynamo.S("z")))),
		{"updates", "Updates", func(e *Encoder) { e.Updates(updates) },
			func(d *Decoder) bool { return sameUpdates(d.Updates()) }},
		{"no updates", "Updates", func(e *Encoder) { e.Updates(nil) },
			func(d *Decoder) bool { return d.Updates() == nil }},
		{"query opts", "QueryOpts", func(e *Encoder) { e.QueryOpts(opts) },
			func(d *Decoder) bool {
				got := d.QueryOpts()
				return got.Filter != nil && got.Filter.String() == opts.Filter.String() &&
					reflect.DeepEqual(got.Projection, paths) && got.Limit == 5 && got.Descending
			}},
		{"tx ops", "TxOps", func(e *Encoder) { e.TxOps(txOps) },
			func(d *Decoder) bool {
				got := d.TxOps()
				if len(got) != len(txOps) {
					return false
				}
				for i, want := range txOps {
					g := got[i]
					if g.Table != want.Table || g.Delete != want.Delete || g.Check != want.Check ||
						!g.Key.Hash.Equal(want.Key.Hash) || !g.Key.Sort.Equal(want.Key.Sort) ||
						(g.Cond == nil) != (want.Cond == nil) || (g.Put == nil) != (want.Put == nil) ||
						!itemsEqual(g.Put, want.Put) || len(g.Updates) != len(want.Updates) {
						return false
					}
				}
				return sameUpdates(got[1].Updates)
			}},
	}
}

// TestRoundTrip is the one table for the data model: every row decodes back
// to what was encoded, consumes exactly its bytes, re-encodes byte for byte
// (the encoding is deterministic), and fails cleanly — no panic, an
// ErrFormat — on every strict prefix of itself.
func TestRoundTrip(t *testing.T) {
	for _, rt := range roundTrips() {
		t.Run(rt.shape+"/"+rt.name, func(t *testing.T) {
			e := NewEncoder(64)
			rt.enc(e)
			if e.Err() != nil {
				t.Fatal(e.Err())
			}
			d := NewDecoder(e.Body())
			if !rt.same(d) {
				t.Error("decoded to something else")
			}
			if err := d.Done(); err != nil {
				t.Errorf("after decoding: %v", err)
			}
			again := NewEncoder(64)
			shapes[rt.shape](NewDecoder(e.Body()), again)
			if !bytes.Equal(again.Body(), e.Body()) {
				t.Errorf("re-encoded differently\n first %x\nsecond %x", e.Body(), again.Body())
			}
			for n := 0; n < e.Len(); n++ {
				d := NewDecoder(e.Body()[:n])
				shapes[rt.shape](d, NewEncoder(64))
				if !errors.Is(d.Err(), ErrFormat) {
					t.Fatalf("cut to %d of %d bytes: Err = %v", n, e.Len(), d.Err())
				}
			}
		})
	}
}

// TestRoundTripCoversEveryCondNode: the Cond rows of the table, between
// them, hold every node type the codec has a kind byte for.
func TestRoundTripCoversEveryCondNode(t *testing.T) {
	seen := map[string]bool{}
	var walk func(c dynamo.Cond)
	walk = func(c dynamo.Cond) {
		seen[reflect.TypeOf(c).Name()] = true
		switch c := c.(type) {
		case dynamo.CondAnd:
			for _, sub := range c.Conds {
				walk(sub)
			}
		case dynamo.CondOr:
			for _, sub := range c.Conds {
				walk(sub)
			}
		case dynamo.CondNot:
			walk(c.Cond)
		}
	}
	for _, rt := range roundTrips() {
		if rt.shape == "Cond" {
			e := NewEncoder(64)
			rt.enc(e)
			if c := NewDecoder(e.Body()).Cond(); c != nil {
				walk(c)
			}
		}
	}
	if len(seen) != int(condNot) {
		t.Errorf("the round-trip table decodes to %d node types, want all %d: %v", len(seen), condNot, seen)
	}
}

// TestFirstErrorSticks: after a failure the error does not change, every
// method returns its zero value, and Count returns 0.
func TestFirstErrorSticks(t *testing.T) {
	d := NewDecoder([]byte{byte(dynamo.KindList), 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3})
	if v := d.Value(); !v.IsNull() {
		t.Errorf("a list of 4G elements in 3 bytes decoded to %v", v)
	}
	first := d.Err()
	if !errors.Is(first, ErrFormat) {
		t.Fatalf("Err = %v", first)
	}
	d.Failf("a later failure")
	for name, zero := range map[string]bool{
		"U8": d.U8() == 0, "U16": d.U16() == 0, "U64": d.U64() == 0, "Uvarint": d.Uvarint() == 0,
		"Int": d.Int() == 0, "Count": d.Count() == 0, "F64": d.F64() == 0, "Bool": !d.Bool(),
		"Str": d.Str() == "", "Raw": d.Raw(1) == nil, "Value": d.Value().IsNull(), "Item": d.Item() == nil,
		"Items": d.Items() == nil, "Key": d.Key().Hash.IsNull() && d.Key().Sort.IsNull(),
		"Path": d.Path() == dynamo.Path{}, "Paths": d.Paths() == nil,
		"Schema": reflect.DeepEqual(d.Schema(), dynamo.Schema{}), "Cond": d.Cond() == nil,
		"Updates": d.Updates() == nil, "QueryOpts": reflect.DeepEqual(d.QueryOpts(), dynamo.QueryOpts{}),
		"TxOps": d.TxOps() == nil,
	} {
		if !zero {
			t.Errorf("%s returned a non-zero value after a failure", name)
		}
	}
	if d.Err() != first || d.Done() != first {
		t.Errorf("the error changed: %v, then %v", first, d.Err())
	}

	// Done, and only Done, minds bytes left over.
	d = NewDecoder([]byte{7, 8})
	if d.U8() != 7 || d.Err() != nil {
		t.Fatal("U8")
	}
	if err := d.Done(); !errors.Is(err, ErrFormat) {
		t.Errorf("Done with a byte left over = %v", err)
	}
}

// TestCorruptModel: bytes no encoder writes are refused with an ErrFormat.
func TestCorruptModel(t *testing.T) {
	for name, tc := range map[string]struct {
		shape string
		in    []byte
	}{
		"unknown value kind":      {"Value", []byte{9}},
		"unknown condition kind":  {"Cond", []byte{1, 0}},
		"unknown comparison":      {"Cond", []byte{1, condCmp, 1, 'V', 0, 1, '~', 0}},
		"NOT with two children":   {"Cond", []byte{1, condNot, 2, condTrue, condTrue}},
		"unknown update kind":     {"Updates", []byte{1, 9, 1, 'A', 0}},
		"update of no kind":       {"Updates", kindlessUpdate()},
		"string longer than body": {"Value", []byte{byte(dynamo.KindString), 200, 'x'}},
		"count longer than body":  {"Items", []byte{200, 1, 0}},
		"repeated key":            {"Item", rowWithKeys("K", "V", "V")},
		"keys out of order":       {"Item", rowWithKeys("V", "K")},
		"repeated map key":        {"Value", mapWithKeys("step-1", "step-1")},
		"map keys out of order":   {"Value", mapWithKeys("step-2", "step-1")},
	} {
		d := NewDecoder(tc.in)
		shapes[tc.shape](d, NewEncoder(64))
		if !errors.Is(d.Err(), ErrFormat) {
			t.Errorf("%s: Err = %v", name, d.Err())
		}
	}
}

// rowWithKeys is a row body holding the attributes in the order given, each
// set to 1 — hand-built, because an encoder writes them sorted and once.
func rowWithKeys(keys ...string) []byte {
	e := NewEncoder(64)
	e.Int(len(keys))
	for _, k := range keys {
		e.Str(k)
		e.Value(dynamo.NInt(1))
	}
	return e.Body()
}

// mapWithKeys is rowWithKeys as a map value.
func mapWithKeys(keys ...string) []byte {
	return append([]byte{byte(dynamo.KindMap)}, rowWithKeys(keys...)...)
}

// kindlessUpdate is the body an encoder writes for the zero dynamo.Update
// beside a SET: nothing stops an encoder from writing a kind no decoder
// accepts, so the decoder is where it is refused.
func kindlessUpdate() []byte {
	e := NewEncoder(64)
	e.Updates([]dynamo.Update{dynamo.Set(dynamo.A("V"), dynamo.S("x")), {Path: dynamo.A("V")}})
	return e.Body()
}

// schemaWithShards is a well-formed Schema body but for its shard count —
// hand-built, because no encoder is handed such an int.
func schemaWithShards(n uint64) []byte {
	e := NewEncoder(64)
	e.Str("t")
	e.Str("K")
	e.Str("")
	e.Int(0)
	e.Uvarint(n)
	e.Int(0)
	return e.Body()
}

// TestIntBound: a size, limit or shard count above math.MaxInt32 is
// corruption, not a number to wrap negative or hand to make. 1<<40 shards in
// a 40-byte CreateTable frame used to reach dynamo's make([]*shard, n) and
// kill the process with "fatal error: runtime: out of memory".
func TestIntBound(t *testing.T) {
	e := NewEncoder(64)
	e.Int(1<<31 - 1)
	e.Uvarint(1 << 31)
	d := NewDecoder(e.Body())
	if v := d.Int(); v != 1<<31-1 || d.Err() != nil {
		t.Fatalf("Int = %d, %v", v, d.Err())
	}
	if v := d.Int(); v != 0 || !errors.Is(d.Err(), ErrFormat) {
		t.Errorf("Int of 1<<31 = %d, %v", v, d.Err())
	}
	if sch := NewDecoder(schemaWithShards(16)).Schema(); sch.Shards != 16 {
		t.Fatalf("a schema with 16 shards decoded to %+v", sch)
	}
	for _, n := range []uint64{1 << 40, 1<<64 - 1} {
		d := NewDecoder(schemaWithShards(n))
		if sch := d.Schema(); !errors.Is(d.Err(), ErrFormat) || sch.Name != "" {
			t.Errorf("a schema with %d shards decoded to %+v, %v", n, sch, d.Err())
		}
	}
}

// nest returns depth levels of a one-element collection around a leaf.
func nest(level []byte, depth int, leaf ...byte) []byte {
	return append(bytes.Repeat(level, depth), leaf...)
}

var (
	listLevel = []byte{byte(dynamo.KindList), 1}
	mapLevel  = []byte{byte(dynamo.KindMap), 1, 0} // one entry under the empty key
	notLevel  = []byte{condNot, 1}
)

func nestedNots(depth int) []byte {
	return append([]byte{1}, nest(notLevel, depth, condTrue)...)
}

// TestNestingBound: input nested past MaxDepth fails like any other corrupt
// input instead of recursing until the runtime kills the process — 4 Mi
// levels, hand-built (building such a value would overflow the recursive
// encoder first), overflowed the 1 GB goroutine stack before the bound
// existed. Everything up to MaxDepth, which covers any row the default item
// size cap admits, still decodes and re-encodes.
func TestNestingBound(t *testing.T) {
	if MaxDepth < dynamo.DefaultMaxItemSize/4 {
		t.Fatalf("MaxDepth %d is below what a %d-byte row can nest", MaxDepth, dynamo.DefaultMaxItemSize)
	}
	for name, tc := range map[string]struct {
		shape string
		at    func(depth int) []byte
	}{
		"lists": {"Value", func(n int) []byte { return nest(listLevel, n, byte(dynamo.KindNull)) }},
		"maps":  {"Value", func(n int) []byte { return nest(mapLevel, n, byte(dynamo.KindNull)) }},
		"nots":  {"Cond", nestedNots},
	} {
		for _, depth := range []int{MaxDepth + 1, 4 << 20} {
			d := NewDecoder(tc.at(depth))
			shapes[tc.shape](d, NewEncoder(64))
			if !errors.Is(d.Err(), ErrFormat) {
				t.Errorf("%s nested %d deep: Err = %v", name, depth, d.Err())
			}
		}
		in := tc.at(MaxDepth)
		d, e := NewDecoder(in), NewEncoder(len(in)+FrameHeaderLen)
		shapes[tc.shape](d, e)
		if err := d.Done(); err != nil {
			t.Errorf("%s nested %d deep: %v", name, MaxDepth, err)
		} else if !bytes.Equal(e.Body(), in) {
			t.Errorf("%s nested %d deep re-encoded differently", name, MaxDepth)
		}
	}
}

// foreign is a Cond this package has no encoding for.
type foreign struct{}

func (foreign) Eval(dynamo.Attrs) bool { return true }
func (foreign) String() string         { return "foreign" }

func TestForeignCondIsAnEncoderError(t *testing.T) {
	for _, c := range []dynamo.Cond{
		foreign{},
		dynamo.And(dynamo.True(), dynamo.Not(foreign{})),
		dynamo.Not(nil),
		dynamo.CondCmp{Path: dynamo.A("V"), Op: "~", Value: dynamo.NInt(1)},
	} {
		e := NewEncoder(64)
		e.Cond(dynamo.True())
		if e.Err() != nil {
			t.Fatal(e.Err())
		}
		e.Cond(c)
		e.Cond(dynamo.True())
		if !errors.Is(e.Err(), ErrFormat) {
			t.Errorf("%v: Err = %v", c, e.Err())
		}
	}
}

func TestFrames(t *testing.T) {
	bodies := [][]byte{{}, []byte("x"), bytes.Repeat([]byte("beldi"), 1000)}
	var stream []byte
	for _, b := range bodies {
		e := NewEncoder(16)
		e.Raw(string(b))
		if e.Len() != len(b) || !bytes.Equal(e.Body(), b) {
			t.Fatalf("Len/Body of a %d-byte body", len(b))
		}
		stream = append(stream, e.Frame()...)
	}

	// The stream reader and the segment reader see the same frames.
	r, off := bytes.NewReader(stream), 0
	for i, want := range bodies {
		got, err := ReadFrame(r, 1<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadFrame %d: %q, %v", i, got, err)
		}
		got, next, err := NextFrame(stream, off)
		if err != nil || !bytes.Equal(got, want) || next != off+FrameHeaderLen+len(want) {
			t.Fatalf("NextFrame %d at %d: %q, next %d, %v", i, off, got, next, err)
		}
		off = next
	}
	if _, err := ReadFrame(r, 1<<20); err != io.EOF {
		t.Errorf("at the end of the stream: %v, want a bare io.EOF", err)
	}
	if off != len(stream) {
		t.Errorf("NextFrame stopped at %d of %d", off, len(stream))
	}

	// Damage. The stream reader tells a dead connection (the I/O error, as it
	// is) from a bad frame (ErrFormat); the segment reader says what is wrong
	// where.
	frame := stream[FrameHeaderLen+FrameHeaderLen+1:] // the third frame
	flipped := append([]byte(nil), frame...)
	flipped[FrameHeaderLen+2] ^= 0x40
	for name, tc := range map[string]struct {
		in      []byte
		corrupt bool   // ReadFrame reports ErrFormat
		next    string // NextFrame's description
	}{
		"cut in the header": {frame[:5], false, "torn frame header at offset 0"},
		"cut in the body":   {frame[:len(frame)-3], true, "torn record at offset 0 (3 body bytes missing)"},
		"flipped bit":       {flipped, true, "CRC mismatch at offset 0"},
		"absurd length":     {[]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, true, "torn record at offset 0 (4294967295 body bytes missing)"},
	} {
		_, err := ReadFrame(bytes.NewReader(tc.in), 1<<20)
		if err == nil || errors.Is(err, ErrFormat) != tc.corrupt {
			t.Errorf("%s: ReadFrame = %v", name, err)
		}
		_, next, err := NextFrame(tc.in, 0)
		if !errors.Is(err, ErrFormat) || err.Error() != tc.next || next != 0 {
			t.Errorf("%s: NextFrame = next %d, %v", name, next, err)
		}
	}

	// The unframed form: a trailing checksum.
	e := NewEncoder(16)
	e.Str("snapshot")
	sealed := e.Sealed()
	if body, err := Unseal(sealed); err != nil || !bytes.Equal(body, e.Body()) {
		t.Errorf("Unseal(Sealed) = %q, %v", body, err)
	}
	sealed[1] ^= 1
	if _, err := Unseal(sealed); !errors.Is(err, ErrFormat) {
		t.Errorf("Unseal of a flipped bit: %v", err)
	}
	if _, err := Unseal(sealed[:3]); !errors.Is(err, ErrFormat) {
		t.Errorf("Unseal of 3 bytes: %v", err)
	}
}

// fixtureBodies returns the message bodies inside the format fixtures: every
// WAL record, the snapshot, every wire frame.
func fixtureBodies(f *testing.F) [][]byte {
	f.Helper()
	var bodies [][]byte
	segs, err := filepath.Glob("testdata/wal/*.seg")
	if err != nil || len(segs) == 0 {
		f.Fatalf("no WAL fixture: %v", err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			f.Fatal(err)
		}
		for off := 0; off < len(data); {
			body, next, err := NextFrame(data, off)
			if err != nil {
				f.Fatal(err)
			}
			bodies, off = append(bodies, body), next
		}
	}
	snaps, _ := filepath.Glob("testdata/wal/*.snap")
	for _, snap := range snaps {
		data, err := os.ReadFile(snap)
		if err != nil {
			f.Fatal(err)
		}
		body, err := Unseal(data)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	wire, err := os.Open("testdata/wire.txt")
	if err != nil {
		f.Fatal(err)
	}
	defer wire.Close()
	sc := bufio.NewScanner(wire)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			frame, err := hex.DecodeString(line[2:])
			if err != nil {
				f.Fatal(err)
			}
			bodies = append(bodies, frame[FrameHeaderLen:])
		}
	}
	return bodies
}

// FuzzDecode throws arbitrary bytes at every top-level decoder. None may
// panic or fail with anything but an ErrFormat, and whatever one accepts
// must canonicalize: it re-encodes, and decoding and encoding that again
// gives the same bytes (one round normalizes non-minimal varints and
// non-canonical bools; after it the encoding is a fixed point).
// Seeds: the bodies inside the format fixtures (real WAL and wire traffic),
// the round-trip table's encodings, the deep-nesting shapes, shallow and
// just past MaxDepth, and rows and maps with keys repeated or out of order.
// CI runs a short -fuzz smoke; locally:
//
//	go test ./internal/storage/codec -run '^$' -fuzz 'FuzzDecode$' -fuzztime 30s
func FuzzDecode(f *testing.F) {
	for _, body := range fixtureBodies(f) {
		f.Add(body)
	}
	for _, rt := range roundTrips() {
		e := NewEncoder(64)
		rt.enc(e)
		f.Add(e.Body())
	}
	for _, depth := range []int{64, MaxDepth + 1} {
		f.Add(nest(listLevel, depth, byte(dynamo.KindNull)))
		f.Add(nest(mapLevel, depth, byte(dynamo.KindNull)))
		f.Add(nestedNots(depth))
	}
	f.Add(schemaWithShards(1 << 40))
	f.Add(kindlessUpdate())
	f.Add([]byte{})
	f.Add(rowWithKeys("K", "V", "V"))
	f.Add(rowWithKeys("V", "K"))
	f.Add(mapWithKeys("step-1", "step-1"))
	f.Add(mapWithKeys("step-2", "step-1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		FreshNames(t) // every input meets an empty intern table, not a full one
		for name, copyOne := range shapes {
			d, e := NewDecoder(data), NewEncoder(len(data)+FrameHeaderLen)
			v := copyOne(d, e)
			if err := d.Err(); err != nil {
				if !errors.Is(err, ErrFormat) {
					t.Fatalf("%s: rejected with %v, not an ErrFormat", name, err)
				}
				continue
			}
			if err := e.Err(); err != nil {
				t.Fatalf("%s: decoded input does not encode: %v", name, err)
			}
			// The differential oracle for the intern table: with every Name
			// read as a Str the input decodes to the same value and the same
			// bytes. (DeepEqual tells a NaN from itself; such values are
			// compared as printed.)
			NamesAsStr(func() {
				ds, es := NewDecoder(data), NewEncoder(len(data)+FrameHeaderLen)
				vs := copyOne(ds, es)
				if ds.Err() != nil || !bytes.Equal(es.Body(), e.Body()) {
					t.Fatalf("%s: without interning: %v\n first: %x\nsecond: %x", name, ds.Err(), e.Body(), es.Body())
				}
				if !reflect.DeepEqual(v, vs) && fmt.Sprint(v) != fmt.Sprint(vs) {
					t.Fatalf("%s: interning changed the value:\n with: %v\n without: %v", name, v, vs)
				}
			})
			d2, e2 := NewDecoder(e.Body()), NewEncoder(e.Len()+FrameHeaderLen)
			copyOne(d2, e2)
			if err := d2.Done(); err != nil {
				t.Fatalf("%s: re-encoded input does not decode: %v\nbody: %x", name, err, e.Body())
			}
			if !bytes.Equal(e.Body(), e2.Body()) {
				t.Fatalf("%s: encoding is not a fixed point:\n first: %x\nsecond: %x", name, e.Body(), e2.Body())
			}
		}
	})
}
