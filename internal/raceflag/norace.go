//go:build !race

// Package raceflag tells tests whether the race detector is on. An allocation
// budget means nothing under it — instrumentation allocates, and sync.Pool
// drops a share of what it is given on purpose — so the budget tests skip
// themselves there and CI runs them in a step of their own, without -race.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
