package codec

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/raceflag"
)

// The allocation budget of the codec itself: what carrying one row costs once
// the buffers are warm. A row's maps and its data strings, in one arena, are
// what decoding returns, so they are what it may allocate; the encoder, the
// frame reader and attribute names may allocate nothing. internal/remote and
// internal/walstore pin the same per RPC and per record.

// budgetRow has six attributes, one of them a map value. Its data strings:
// two string values, one byte value, and two keys and one string value
// inside the map.
func budgetRow() dynamo.Item {
	return dynamo.Item{
		"InstanceId": dynamo.S("instance-0001"),
		"StepKey":    dynamo.S("step-7"),
		"Done":       dynamo.Bool(true),
		"Ts":         dynamo.NInt(1 << 40),
		"Blob":       dynamo.Bytes([]byte{1, 2, 3}),
		"Log": dynamo.M(map[string]dynamo.Value{
			"step-1": dynamo.S("booked"),
			"step-2": dynamo.NInt(2),
		}),
	}
}

// budgetCond is a lock-shaped composite condition: a conjunction holding a
// comparison on a data string, a negation and a comparison on a number.
func budgetCond() dynamo.Cond {
	return dynamo.And(
		dynamo.Eq(dynamo.A("Owner"), dynamo.S("txn-1")),
		dynamo.Not(dynamo.NotExists(dynamo.A("Lock"))),
		dynamo.Lt(dynamo.A("Ts"), dynamo.NInt(9)),
	)
}

// allocsPerRun is testing.AllocsPerRun where that means something.
func allocsPerRun(t *testing.T, f func()) float64 {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	return testing.AllocsPerRun(1000, f)
}

func TestEncodeIntoReusedEncoderAllocatesNothing(t *testing.T) {
	row, e := budgetRow(), NewEncoder(64)
	var frame []byte
	if n := allocsPerRun(t, func() {
		e.Reset()
		e.Item(row)
		frame = e.Frame()
	}); n != 0 {
		t.Errorf("encoding a row into a reused encoder: %v allocations, want 0", n)
	}
	if got := NewDecoder(frame[FrameHeaderLen:]).Item(); !itemsEqual(got, row) {
		t.Errorf("the reused encoder wrote %v", got)
	}

	cond := budgetCond()
	if n := allocsPerRun(t, func() {
		e.Reset()
		e.Cond(cond)
		frame = e.Frame()
	}); n != 0 {
		t.Errorf("encoding a condition into a reused encoder: %v allocations, want 0", n)
	}
	if got := NewDecoder(frame[FrameHeaderLen:]).Cond(); got == nil || got.String() != cond.String() {
		t.Errorf("the reused encoder wrote %v", got)
	}

	// The pool's round trip costs nothing either (slack: a GC cycle empties it).
	if n := allocsPerRun(t, func() {
		e := GetEncoder()
		e.Item(row)
		frame = e.Frame()
		PutEncoder(e)
	}); n > 1 {
		t.Errorf("GetEncoder/PutEncoder around a row: %v allocations, want 0", n)
	}
}

func TestDecodeAllocatesWhatItReturns(t *testing.T) {
	e := NewEncoder(64)
	e.Item(budgetRow())
	body := e.Body()
	NewDecoder(body).Item() // first sight of the six attribute names
	var got dynamo.Item
	// The row's map (2: header and slots, on the go 1.24 runtime), the nested
	// map value's field list (1; 2 while it was a Go map), one string arena
	// for the five data strings that are strings (two values, and two keys
	// and a value inside the map; 5 while each was its own), and the byte
	// value's private copy, which the Value points at (6 while a 48-byte
	// Value boxed a byte slice's or list's header; 10 while a Value was 96
	// bytes). Names: 0.
	const want = 2 + 1 + 1 + 1
	if n := allocsPerRun(t, func() {
		d := Decoder{b: body}
		got = d.Item()
	}); n != want {
		t.Errorf("decoding a row: %v allocations, want %d (its map, field list, string arena and byte value)", n, want)
	}
	if !itemsEqual(got, budgetRow()) {
		t.Errorf("decoded %v", got)
	}

	// A condition is the tree it decodes to: the conjunction's child slice,
	// each of the five nodes boxed as a Cond, and the one data string.
	// Names and operators: 0.
	e.Reset()
	e.Cond(budgetCond())
	body = e.Body()
	NewDecoder(body).Cond()
	var cond dynamo.Cond
	const wantCond = 1 + 5 + 1
	if n := allocsPerRun(t, func() {
		d := Decoder{b: body}
		cond = d.Cond()
	}); n != wantCond {
		t.Errorf("decoding a condition: %v allocations, want %d (its child slice, five nodes and a data string)", n, wantCond)
	}
	if cond == nil || cond.String() != budgetCond().String() {
		t.Errorf("decoded %v", cond)
	}
}

// repeat is a stream that never ends: the same frames over and over.
type repeat struct {
	frames []byte
	off    int
}

func (r *repeat) Read(p []byte) (int, error) {
	n := copy(p, r.frames[r.off:])
	r.off = (r.off + n) % len(r.frames)
	return n, nil
}

func TestFrameReaderSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEncoder(64)
	e.Raw(string(bytes.Repeat([]byte("k"), 1024)))
	fr := NewFrameReader(&repeat{frames: append([]byte(nil), e.Frame()...)}, 1<<20)
	if n := allocsPerRun(t, func() {
		m, err := fr.Next()
		if err != nil || m.Len() != 1024 {
			t.Fatalf("Next = %d bytes, %v", m.Len(), err)
		}
		m.Release()
	}); n > 1 {
		t.Errorf("reading a 1 KiB frame in steady state: %v allocations, want 0", n)
	}
}

// TestRetentionCap: a buffer that one large message grew past MaxPooledBuffer
// is not kept, by an owner's Reset or by either pool.
func TestRetentionCap(t *testing.T) {
	big := string(bytes.Repeat([]byte("x"), MaxPooledBuffer+1))
	e := NewEncoder(64)
	e.Raw(big)
	e.Reset()
	if cap(e.b) > MaxPooledBuffer || e.Len() != 0 {
		t.Errorf("after Reset the encoder holds %d bytes of buffer, %d of body", cap(e.b), e.Len())
	}
	wide := make(dynamo.Item)
	for i := 0; i < MaxPooledBuffer/16+1; i++ {
		wide[fmt.Sprint(i)] = dynamo.Null
	}
	e.Item(wide)
	e.Reset()
	if cap(e.keys) > MaxPooledBuffer/16 {
		t.Errorf("after Reset the encoder holds a key buffer of %d", cap(e.keys))
	}

	e.Raw(big)
	fr := NewFrameReader(bytes.NewReader(e.Frame()), 1<<20)
	m, err := fr.Next()
	if err != nil || m.Len() != len(big) {
		t.Fatalf("Next = %v", err)
	}
	m.Release()
	if m.buf != nil {
		t.Errorf("a released message kept a %d-byte buffer", cap(m.buf))
	}
}

// TestNothingDecodedAliasesTheInput is the invariant every release point
// leans on: overwrite a body after decoding it and every decoded value — of
// every shape in the round-trip table — still re-encodes to the original
// bytes. Only Raw aliases, and says so.
func TestNothingDecodedAliasesTheInput(t *testing.T) {
	FreshNames(t) // so that names are first sights, copied out of this input
	for _, rt := range roundTrips() {
		e := NewEncoder(64)
		rt.enc(e)
		body := append([]byte(nil), e.Body()...)
		d := NewDecoder(body)
		v := shapeTable[rt.shape].dec(d)
		if err := d.Done(); err != nil {
			t.Fatalf("%s/%s: %v", rt.shape, rt.name, err)
		}
		fill(body)
		again := NewEncoder(64)
		shapeTable[rt.shape].enc(again, v)
		if !bytes.Equal(again.Body(), e.Body()) {
			t.Errorf("%s/%s: a decoded value changed when its input was overwritten", rt.shape, rt.name)
		}
	}
	d := NewDecoder([]byte("BLDR"))
	raw := d.Raw(4)
	fill(d.b)
	if string(raw) == "BLDR" {
		t.Error("Raw copied; its doc says it aliases")
	}
}

// TestInternTableBounds walks the table past both of its edges.
func TestInternTableBounds(t *testing.T) {
	FreshNames(t)
	row := func(name string) []byte {
		e := NewEncoder(64)
		e.Item(dynamo.Item{name: dynamo.NInt(1)})
		return append([]byte(nil), e.Body()...)
	}
	// 100 000 distinct names in sequence fill the table and stop there; the
	// rows past the edge decode to the same values as the rows before it.
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("attr-%d", i)
		it := NewDecoder(row(name)).Item()
		if v, ok := it[name]; !ok || v.Int() != 1 || len(it) != 1 {
			t.Fatalf("row %d decoded to %v", i, it)
		}
	}
	if n := InternedNames(); n != MaxInternedNames {
		t.Errorf("the table holds %d names after 100 000 distinct ones, want its bound %d", n, MaxInternedNames)
	}
	if _, ok := (*names.Load())["attr-0"]; !ok {
		t.Error("the first name seen is not in the table")
	}
	if _, ok := (*names.Load())["attr-99999"]; ok {
		t.Error("a name first seen after the table filled is in it")
	}

	// A name over the length cap is never retained, even with room.
	FreshNames(t)
	long := string(bytes.Repeat([]byte("n"), MaxInternedNameLen+1))
	for i := 0; i < 2; i++ {
		if it := NewDecoder(row(long)).Item(); it[long].Int() != 1 {
			t.Fatalf("the long name decoded to %v", it)
		}
	}
	fits := long[:MaxInternedNameLen]
	NewDecoder(row(fits)).Item()
	if _, ok := (*names.Load())[long]; ok || InternedNames() != 1 {
		t.Errorf("table = %v, want only the %d-byte name", *names.Load(), MaxInternedNameLen)
	}

	// Only names: the keys of a map value and string values are data.
	FreshNames(t)
	e := NewEncoder(64)
	e.Item(dynamo.Item{"A": dynamo.M(map[string]dynamo.Value{"step-key": dynamo.S("value")})})
	NewDecoder(e.Body()).Item()
	if _, ok := (*names.Load())["A"]; !ok || InternedNames() != 1 {
		t.Errorf("table = %v, want only the attribute name A", *names.Load())
	}
}

// TestInternConcurrentFirstSight: 8 goroutines meeting the same new names at
// once lose none of them, and racing past the bound does not exceed it.
func TestInternConcurrentFirstSight(t *testing.T) {
	FreshNames(t)
	const goroutines, shared = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < shared; i++ {
				want := fmt.Sprintf("shared-%d", i)
				if got := intern([]byte(want)); got != want {
					t.Errorf("intern(%q) = %q", want, got)
				}
			}
		}()
	}
	wg.Wait()
	if n := InternedNames(); n != shared {
		t.Fatalf("the table holds %d names after %d goroutines each saw the same %d", n, goroutines, shared)
	}
	for i := 0; i < shared; i++ {
		if _, ok := (*names.Load())[fmt.Sprintf("shared-%d", i)]; !ok {
			t.Errorf("shared-%d was lost", i)
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < MaxInternedNames; i++ {
				want := fmt.Sprintf("own-%d-%d", g, i)
				if got := intern([]byte(want)); got != want {
					t.Errorf("intern(%q) = %q", want, got)
				}
			}
		}()
	}
	wg.Wait()
	if n := InternedNames(); n != MaxInternedNames {
		t.Errorf("the table holds %d names, want its bound %d", n, MaxInternedNames)
	}
}
