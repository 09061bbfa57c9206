package uuid

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/raceflag"
)

func TestNewFormat(t *testing.T) {
	u := New()
	s := u.String()
	if len(s) != 36 {
		t.Fatalf("len = %d", len(s))
	}
	if s[14] != '4' {
		t.Errorf("version nibble = %c, want 4", s[14])
	}
	switch s[19] {
	case '8', '9', 'a', 'b':
	default:
		t.Errorf("variant nibble = %c", s[19])
	}
}

func TestParseRoundTrip(t *testing.T) {
	u := New()
	got, err := Parse(u.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Errorf("round trip: %v != %v", got, u)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"", "not-a-uuid",
		"aaaaaaaa-bbbb-cccc-dddd",                 // short
		"aaaaaaaaabbbbaccccaddddaeeeeeeeeeeee",    // no dashes
		"gggggggg-bbbb-cccc-dddd-eeeeeeeeeeee",    // non-hex
		"aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeee-ff", // long
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		s := NewString()
		if seen[s] {
			t.Fatalf("duplicate uuid %s", s)
		}
		seen[s] = true
	}
}

// TestSeqMatchesSprintfAcrossWidth pins Seq ids to the "%s-%012d" form they
// were first built with, on both sides of the 12-digit edge.
func TestSeqMatchesSprintfAcrossWidth(t *testing.T) {
	for _, start := range []uint64{0, 8, 99, 999_999_999_995, 9_999_999_999_995} {
		s := &Seq{Prefix: "req", n: start}
		for n := start + 1; n <= start+10; n++ {
			if got, want := s.NewString(), fmt.Sprintf("%s-%012d", "req", n); got != want {
				t.Fatalf("id %d = %q, want %q", n, got, want)
			}
		}
	}
	for _, c := range []struct {
		prefix string
		sep    byte
		n      uint64
		width  int
	}{{"", '.', 0, 6}, {"0-1-2", '.', 999_999, 6}, {"0-1-2", '.', 1_000_000, 6}, {"x", '-', 1<<64 - 1, 12}, {"y", '.', 7, 0}} {
		want := fmt.Sprintf("%s%c%0*d", c.prefix, c.sep, c.width, c.n)
		if got := Padded(c.prefix, c.sep, c.n, c.width); got != want {
			t.Errorf("Padded(%q, %q, %d, %d) = %q, want %q", c.prefix, c.sep, c.n, c.width, got, want)
		}
	}
}

func TestSeqAllocatesTheIdOnly(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	s := &Seq{Prefix: "req"}
	if got := testing.AllocsPerRun(1000, func() { s.NewString() }); got != 1 {
		t.Errorf("Seq.NewString: %.0f allocations, want 1 (the id)", got)
	}
}

func TestSeqDeterministicAndConcurrent(t *testing.T) {
	s := &Seq{Prefix: "t"}
	if got := s.NewString(); got != "t-000000000001" {
		t.Errorf("first = %q", got)
	}
	var wg sync.WaitGroup
	out := make(chan string, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out <- s.NewString()
		}()
	}
	wg.Wait()
	close(out)
	seen := make(map[string]bool)
	for id := range out {
		if seen[id] {
			t.Fatalf("duplicate %s", id)
		}
		if !strings.HasPrefix(id, "t-") {
			t.Fatalf("bad prefix %s", id)
		}
		seen[id] = true
	}
}
