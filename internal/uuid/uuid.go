// Package uuid generates RFC 4122 version-4 UUIDs.
//
// Beldi assigns a fresh UUID to every SSF instance: the serverless platform
// assigns one to the first SSF of a workflow (the "request id" on AWS), and
// each caller generates one for each callee (§3.3 of the paper). The package
// also provides a deterministic source so tests can replay id sequences.
package uuid

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
)

// UUID is a 128-bit RFC 4122 identifier.
type UUID [16]byte

// New returns a fresh random (version 4, variant 1) UUID. It panics only if
// the operating system's entropy source fails, which is unrecoverable.
func New() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		panic(fmt.Sprintf("uuid: entropy source failed: %v", err))
	}
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // variant 1
	return u
}

// NewString returns New formatted with String.
func NewString() string { return New().String() }

// String formats the UUID in the canonical 8-4-4-4-12 hex form.
func (u UUID) String() string {
	var buf [36]byte
	hex.Encode(buf[0:8], u[0:4])
	buf[8] = '-'
	hex.Encode(buf[9:13], u[4:6])
	buf[13] = '-'
	hex.Encode(buf[14:18], u[6:8])
	buf[18] = '-'
	hex.Encode(buf[19:23], u[8:10])
	buf[23] = '-'
	hex.Encode(buf[24:36], u[10:16])
	return string(buf[:])
}

// Parse decodes a canonical UUID string produced by String.
func Parse(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return u, fmt.Errorf("uuid: malformed %q", s)
	}
	hexed := s[0:8] + s[9:13] + s[14:18] + s[19:23] + s[24:36]
	raw, err := hex.DecodeString(hexed)
	if err != nil {
		return u, fmt.Errorf("uuid: malformed %q: %v", s, err)
	}
	copy(u[:], raw)
	return u, nil
}

// Source produces UUIDs. The default source is the crypto/rand-backed New;
// tests substitute a Seq to obtain reproducible id streams.
type Source interface {
	NewString() string
}

// Random is the production Source backed by New.
type Random struct{}

// NewString implements Source.
func (Random) NewString() string { return NewString() }

// Seq is a deterministic Source that yields "prefix-000000000001",
// "prefix-000000000002", ... Safe for concurrent use.
type Seq struct {
	Prefix string

	mu sync.Mutex
	n  uint64
}

// NewString implements Source.
func (s *Seq) NewString() string {
	s.mu.Lock()
	s.n++
	n := s.n
	s.mu.Unlock()
	return Padded(s.Prefix, '-', n, 12)
}

// Padded returns prefix, sep and n in decimal, zero-padded to width digits
// and wider when n needs more — fmt's "%s<sep>%0<width>d" — in one
// allocation. Seq ids and Beldi's step keys are built with it.
func Padded(prefix string, sep byte, n uint64, width int) string {
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			break
		}
	}
	pad := max(0, width-(len(digits)-i))
	var b strings.Builder
	b.Grow(len(prefix) + 1 + pad + len(digits) - i)
	b.WriteString(prefix)
	b.WriteByte(sep)
	for ; pad > 0; pad-- {
		b.WriteByte('0')
	}
	b.Write(digits[i:])
	return b.String()
}
