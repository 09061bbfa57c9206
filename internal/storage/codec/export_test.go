package codec

import "testing"

// Poison makes every release point (Encoder.Reset, Message.Release)
// overwrite the buffer it releases with 0xDB until the test ends, so a value
// or a frame that aliased a released buffer reads back as garbage.
func Poison(t testing.TB) {
	poison.Store(true)
	t.Cleanup(func() { poison.Store(false) })
}

// InternedNames is how many names the intern table holds.
func InternedNames() int { return len(*names.Load()) }

// fullOfNothing is an intern table at its bound, holding names no row uses
// (an input that happens to spell one still decodes to an equal string). Full,
// it is never written to.
var fullOfNothing = func() map[string]string {
	full := make(map[string]string, MaxInternedNames)
	for i := 0; i < MaxInternedNames; i++ {
		k := string(rune(0x10000 + i))
		full[k] = k
	}
	return full
}()

// NamesAsStr runs f with an intern table that is full of nothing, so that
// Name takes its Str path for every name: the reference the differential
// tests compare the interning decoder with.
func NamesAsStr(f func()) {
	defer swapNames(&fullOfNothing)()
	f()
}

// FreshNames swaps in an empty intern table until the test ends.
func FreshNames(t testing.TB) { t.Cleanup(swapNames(&map[string]string{})) }

func swapNames(m *map[string]string) (restore func()) {
	namesMu.Lock()
	defer namesMu.Unlock()
	old := names.Swap(m)
	return func() {
		namesMu.Lock()
		defer namesMu.Unlock()
		names.Store(old)
	}
}

// WithoutArenas runs f with every data string decoded into a string of its
// own: the reference the differential tests compare scoped decoding with.
func WithoutArenas(f func()) {
	noArenas.Store(true)
	defer noArenas.Store(false)
	f()
}
