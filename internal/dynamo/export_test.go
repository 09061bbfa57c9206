package dynamo

import (
	"os"
	"testing"

	"repro/internal/raceflag"
)

// SetVerifyShared switches the immutability tripwire (verify.go) for stores
// used from here on and returns the function that puts it back. Tests that
// flip it do not run in parallel.
func SetVerifyShared(on bool) (restore func()) {
	prev := verifyShared
	verifyShared = on
	return func() { verifyShared = prev }
}

// Fingerprinted reports how many rows of table the tripwire's side table
// (verify.go) holds a fingerprint for.
func (s *Store) Fingerprinted(table string) int {
	t, err := s.table(table)
	if err != nil {
		panic(err)
	}
	t.sums.mu.Lock()
	defer t.sums.mu.Unlock()
	return len(t.sums.of)
}

// TestMain runs the whole package — its own tests and the conformance suite
// — with the tripwire on when the race detector is: that is the run made for
// finding what the compiler cannot, and the plain run keeps the allocation
// budgets and benchmarks honest.
func TestMain(m *testing.M) {
	verifyShared = raceflag.Enabled
	os.Exit(m.Run())
}
