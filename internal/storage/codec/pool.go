package codec

import (
	"maps"
	"sync"
	"sync/atomic"
)

// MaxPooledBuffer is the largest buffer a reused Encoder or a pooled Message
// keeps between messages. One that grew past it — a large scan's reply, a
// 400 KiB row — is left to the garbage collector and replaced by a small one.
const MaxPooledBuffer = 64 << 10

// pooledBufferSize is what a pooled buffer holds before it grows: enough for
// the request, reply or record of most logged steps.
const pooledBufferSize = 512

var encoders = sync.Pool{New: func() any { return NewEncoder(pooledBufferSize) }}

// GetEncoder returns an empty encoder from the package's pool. The caller
// owns it, and every slice it hands out, until PutEncoder.
func GetEncoder() *Encoder { return encoders.Get().(*Encoder) }

// PutEncoder resets e and returns it to the pool. The caller must be done
// with the bytes e framed: written, or given up on.
func PutEncoder(e *Encoder) {
	e.Reset()
	encoders.Put(e)
}

// poison, which only tests set, overwrites every buffer at its release point
// (Encoder.Reset, Message.Release), so a reader that kept a slice past it
// sees 0xDB instead of plausible stale bytes.
var poison atomic.Bool

// noArenas, which only tests set, decodes every data string into a string of
// its own, as Str does outside a scope: the reference the fuzz oracle
// compares scoped decoding with.
var noArenas atomic.Bool

func fill(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// Bounds of the intern table behind Decoder.Name.
const (
	// MaxInternedNames is how many distinct names the table holds; once it
	// is full, a name not in it is decoded like any other string.
	MaxInternedNames = 1024
	// MaxInternedNameLen is the longest name the table retains.
	MaxInternedNameLen = 64
)

// names is the intern table: an immutable map that readers load without a
// lock and an insert replaces with a grown copy. Inserts stop at
// MaxInternedNames, so the copying is bounded work over the life of the
// process (and so is what hostile input can make the table retain).
var (
	names   atomic.Pointer[map[string]string]
	namesMu sync.Mutex // serializes inserts
)

func init() { names.Store(&map[string]string{}) }

// intern returns p as a string, shared with every earlier equal name when
// the table holds it or has room for it. The lookup m[string(p)] does not
// allocate; the string a first sight inserts is a copy, never p's memory.
func intern(p []byte) string {
	m := *names.Load()
	if s, ok := m[string(p)]; ok {
		return s
	}
	if len(p) > MaxInternedNameLen || len(m) >= MaxInternedNames {
		return string(p)
	}
	namesMu.Lock()
	defer namesMu.Unlock()
	m = *names.Load()
	if s, ok := m[string(p)]; ok {
		return s
	}
	s := string(p)
	if len(m) < MaxInternedNames {
		grown := maps.Clone(m)
		grown[s] = s
		names.Store(&grown)
	}
	return s
}
