// Package codec is the one place that knows how the storage data model
// becomes bytes. The write-ahead log (internal/walstore: records and
// snapshots) and the wire protocol (internal/remote: requests, replies and
// push events) each add their own envelope — a sequence number and record
// type, a request id and opcode — and encode everything inside it here, so
// the two formats cannot drift apart and a decoding bug is fixed once.
//
// # Primitives
//
// Fixed-width integers are little-endian; a float64 travels as its IEEE-754
// bits in a u64; a bool is one byte, zero or not; lengths, counts and small
// non-negative ints are uvarints (encoding/binary); a string or byte string
// is its uvarint length followed by the bytes.
//
// # The data model
//
//	Value      [u8 kind] then, by dynamo.Kind: nothing (null) · str · f64 ·
//	           bool · bytes · [count][Value…] (list) · [count]([str key][Value])… (map)
//	Item       [count]([str attribute][Value])…
//	Key        [Value hash][Value sort]
//	Path       [str attr][str map key]
//	Schema     [str name][str hash key][str sort key][uvarint max item size]
//	           [uvarint shards][count]([str name][str hash key][str sort key])…
//	Cond       [u8 present] then, when present, a tree of dynamo's node types:
//	           [u8 kind] then nothing (1 CondTrue) · Path (2 CondExists,
//	           3 CondNotExists) · Path [str op] Value (4 CondCmp) ·
//	           [count][tree…] (5 CondAnd, 6 CondOr, 7 CondNot: count 1)
//	Updates    [count]([u8 kind][Path] then Value (set) · f64 (add) · nothing (remove))…
//	QueryOpts  [Cond filter][count][Path…][uvarint limit][bool descending]
//	TxOps      [count]([str table][Key][Cond][u8 has put][Item, if so]
//	           [Updates][bool delete][bool check])…
//
// The encoding is deterministic: map and item keys are written in strictly
// increasing byte order, so equal values encode to equal bytes and a replayed log is
// byte-comparable across runs. The decoder holds input to that order —
// keys out of order, or one repeated, are refused rather than resolved — so
// decoding then re-encoding any accepted input reaches a fixed point after
// one round (non-minimal varints and non-canonical bools normalise once).
//
// # The frame
//
// Every WAL record and every wire message is framed
//
//	[u32 body length][u32 CRC-32C (Castagnoli) of the body][body]
//
// An Encoder starts with FrameHeaderLen bytes of room, the body is encoded
// once behind them, and Frame fills the header in place — one buffer from
// the first field to the Write. A FrameReader takes frames off a connection
// (ReadFrame is its one-shot form, for a handshake), NextFrame off a segment
// file held in memory. A snapshot is not framed; it ends in the same checksum
// instead (Sealed, Unseal).
//
// # Buffers have owners
//
// Carrying a message allocates nothing in steady state, because every buffer
// on the way has one owner and one release point. An Encoder is reused:
// GetEncoder hands out a reset one and PutEncoder takes it back once the
// bytes it framed are dead (written, or given up on), or a single owner
// keeps one and calls Reset between messages. A FrameReader reads each body
// into a recycled Message — the body and the Decoder over it, one pooled
// object — which whoever decodes it gives back with Release after reading
// the last field. Neither pool keeps a buffer grown past MaxPooledBuffer, so
// one large scan cannot pin its memory, and a Message nobody releases is
// simply collected.
//
// Releasing a body is safe because of one invariant, which the tests pin by
// overwriting every released buffer: nothing a Decoder returns aliases its
// input except Raw. Str, Name and byte values copy; Raw is for a fixed-size
// field that is compared and dropped, such as the handshake magic.
//
// # Names
//
// Where the grammar holds an identifier — a row's attribute names, a path's
// attribute, a comparison operator, a table or index name — the decoder
// reads it with Name instead of Str: the string comes from a process-wide
// intern table, so the thousandth row of a table shares its attribute names
// with the first and decoding them allocates nothing. Data (string values,
// the keys of a map value) is never interned. The table holds at most
// MaxInternedNames names of at most MaxInternedNameLen bytes; past either
// bound Name is Str, so hostile input can make it retain 64 KiB for the life
// of the process and no more.
//
// # Hostile input
//
// Decoded bytes come from a disk after a crash or from a socket, so a
// Decoder trusts none of them: every collection length goes through Count,
// which bounds it by the bytes that remain (each element costs at least
// one), and lists, maps and condition trees may nest at most MaxDepth deep —
// enough for anything a row of dynamo.DefaultMaxItemSize can hold, far
// below the depth at which the recursion would exhaust the goroutine stack.
// Int refuses anything above math.MaxInt32, so no size, limit or shard count
// wraps negative or sizes an allocation on its own.
// A Decoder carries its first error: after it, every method returns a zero
// value and Count returns 0, so decoding code reads straight through and
// checks Err (or Done, which also rejects trailing bytes) once per message —
// before acting on anything it decoded.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrFormat matches, under errors.Is, every error this package reports:
// bytes that are not a valid encoding, and an expression that has none.
var ErrFormat = errors.New("codec: invalid encoding")

// formatError is a description the envelopes prefix with their own name
// ("walstore: …", "remote: protocol error: …").
type formatError string

func (e formatError) Error() string        { return string(e) }
func (e formatError) Is(target error) bool { return target == ErrFormat }

func errorf(format string, args ...any) error {
	return formatError(fmt.Sprintf(format, args...))
}

var errTruncated = errorf("truncated body")

// MaxDepth bounds how deep lists, maps and condition trees may nest in
// decoded input. dynamo.Value.Size charges 4 bytes per level, so a row under
// the default 400 KiB cap nests at most 102 400 deep and always decodes.
const MaxDepth = 1 << 17

// An Encoder appends one message body to a buffer that begins with room for
// the frame header. It carries the one error encoding can have — a
// condition that is not one of dynamo's node types, which has no encoding;
// check Err before using the bytes.
type Encoder struct {
	b []byte
	// keys is the buffer Item sorts attribute names in.
	keys []string
	err  error
}

// NewEncoder returns an empty encoder whose buffer holds size bytes, header
// included, before it grows.
func NewEncoder(size int) *Encoder {
	return &Encoder{b: make([]byte, FrameHeaderLen, size)}
}

// Reset empties the encoder for the next message, keeping its buffer unless
// that grew past MaxPooledBuffer. Every slice Body, Frame or Sealed returned
// is dead from here on.
func (e *Encoder) Reset() {
	if poison.Load() {
		fill(e.b[:cap(e.b)])
	}
	if cap(e.b) > MaxPooledBuffer || cap(e.keys) > MaxPooledBuffer/16 {
		e.b, e.keys = make([]byte, FrameHeaderLen, pooledBufferSize), nil
	}
	e.b, e.keys, e.err = e.b[:FrameHeaderLen], e.keys[:0], nil
}

// Err returns the first encoding failure.
func (e *Encoder) Err() error { return e.err }

// Len is the length of the body encoded so far.
func (e *Encoder) Len() int { return len(e.b) - FrameHeaderLen }

// Truncate cuts the body back to its first n bytes.
func (e *Encoder) Truncate(n int) { e.b = e.b[:FrameHeaderLen+n] }

// Body returns the body encoded so far.
func (e *Encoder) Body() []byte { return e.b[FrameHeaderLen:] }

// U8 appends one byte.
func (e *Encoder) U8(v byte) { e.b = append(e.b, v) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// Uvarint appends a variable-length unsigned integer.
func (e *Encoder) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Int appends a count, size or limit as a uvarint.
func (e *Encoder) Int(v int) { e.Uvarint(uint64(v)) }

// F64 appends a float64's bits.
func (e *Encoder) F64(f float64) { e.U64(math.Float64bits(f)) }

// Bool appends one byte, 1 or 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Int(len(s))
	e.b = append(e.b, s...)
}

// Bytes appends a length-prefixed byte string; Decoder.Str reads it back.
func (e *Encoder) Bytes(p []byte) {
	e.Int(len(p))
	e.b = append(e.b, p...)
}

// Raw appends s with no length prefix — a fixed-size field such as a magic.
func (e *Encoder) Raw(s string) { e.b = append(e.b, s...) }

// A Decoder reads one message body front to back and carries its first
// error; see the package comment for the discipline.
type Decoder struct {
	b     []byte
	off   int
	depth int
	err   error
}

// NewDecoder reads body.
func NewDecoder(body []byte) *Decoder { return &Decoder{b: body} }

// Err returns the first decoding failure.
func (d *Decoder) Err() error { return d.err }

// Done is Err for a message that must end where its last field does: bytes
// left over are a failure too.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.Failf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Failf records a failure the envelope found (an unknown record type, a bad
// magic) under the same first-error rule. Moving to the end of the input is
// what makes every later read come back zero.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.fail(errorf(format, args...))
	}
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.b)
}

// Raw returns the next n bytes, aliasing the input.
func (d *Decoder) Raw(n int) []byte { return d.take(uint64(n)) }

func (d *Decoder) take(n uint64) []byte {
	if n > uint64(len(d.b)-d.off) {
		d.fail(errTruncated)
		return nil
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if d.off >= len(d.b) {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if p := d.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Uvarint reads a variable-length unsigned integer.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return v
}

// Int reads what Encoder.Int wrote. Nothing this repository encodes that way
// — an item size cap, a shard count, a query limit — comes near
// math.MaxInt32; a larger value is corruption, refused here before it can
// wrap negative or reach a make.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt32 {
		d.Failf("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads a collection length and bounds it by the bytes that remain —
// every element costs at least one — so a corrupt prefix cannot size a huge
// allocation. Every make sized by input takes its length from here.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

// F64 reads a float64's bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one byte; any non-zero value is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Str reads a length-prefixed string, copying it out of the input.
func (d *Decoder) Str() string { return string(d.take(d.Uvarint())) }

// Name reads a length-prefixed string that the grammar says is an
// identifier, through the intern table (see the package comment): equal to
// what Str would return, and never aliasing the input either.
func (d *Decoder) Name() string { return intern(d.take(d.Uvarint())) }

// nest enters one level of a list, map or condition tree; the caller leaves
// it with d.depth--.
func (d *Decoder) nest() bool {
	if d.depth == MaxDepth {
		d.Failf("nested more than %d levels deep", MaxDepth)
		return false
	}
	d.depth++
	return true
}

// result is what a composite decoder returns: v, or the zero value once
// anything inside it failed, so no half-decoded value leaves the package.
func result[T any](d *Decoder, v T) T {
	if d.err != nil {
		var zero T
		return zero
	}
	return v
}
