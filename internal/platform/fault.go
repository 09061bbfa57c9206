package platform

import (
	"math/rand"
	"sync"
)

// FaultPlan decides whether an instance dies at a crash point. fn is the
// function name, label the crash-point label (Beldi labels step boundaries
// like "write:post:0.000003"), and opIndex the 1-based count of crash points
// this instance has passed. Implementations must be safe for concurrent use.
type FaultPlan interface {
	ShouldCrash(fn, label string, opIndex int) bool
}

// CrashAll kills every instance at its next crash point — the sudden-death
// model a worker kill uses: in-flight handlers die at their next operation
// boundary, never inside one.
type CrashAll struct{}

// ShouldCrash implements FaultPlan.
func (CrashAll) ShouldCrash(string, string, int) bool { return true }

// CrashOnce kills the first instance of Function that reaches Label, then
// disarms — the canonical "fail, then let the intent collector finish the
// job" scenario from the paper's exactly-once experiments.
type CrashOnce struct {
	Function string
	Label    string

	mu    sync.Mutex
	fired bool
}

// ShouldCrash implements FaultPlan.
func (c *CrashOnce) ShouldCrash(fn, label string, _ int) bool {
	if fn != c.Function || label != c.Label {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired {
		return false
	}
	c.fired = true
	return true
}

// Fired reports whether the crash has been injected.
func (c *CrashOnce) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// CrashNthOp kills the first instance of Function that reaches its Nth
// crash point (1-based), then disarms. Sweeping N over a workflow's crash
// points gives exhaustive step-boundary fault coverage without knowing the
// labels in advance.
type CrashNthOp struct {
	Function string
	N        int

	mu    sync.Mutex
	fired bool
}

// ShouldCrash implements FaultPlan.
func (c *CrashNthOp) ShouldCrash(fn, _ string, opIndex int) bool {
	if fn != c.Function || opIndex != c.N {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired {
		return false
	}
	c.fired = true
	return true
}

// Fired reports whether the crash has been injected.
func (c *CrashNthOp) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// CrashProb kills instances of Function (or any function when Function is
// "") at each crash point with probability P — background chaos for stress
// tests.
type CrashProb struct {
	Function string
	P        float64
	Seed     int64

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

// ShouldCrash implements FaultPlan.
func (c *CrashProb) ShouldCrash(fn, _ string, _ int) bool {
	if c.Function != "" && fn != c.Function {
		return false
	}
	c.once.Do(func() {
		seed := c.Seed
		if seed == 0 {
			seed = 42
		}
		c.rng = rand.New(rand.NewSource(seed))
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < c.P
}

// Plans combines fault plans: an instance dies if any plan says so.
type Plans []FaultPlan

// ShouldCrash implements FaultPlan.
func (ps Plans) ShouldCrash(fn, label string, opIndex int) bool {
	for _, p := range ps {
		if p.ShouldCrash(fn, label, opIndex) {
			return true
		}
	}
	return false
}

// OpCounter records, per function, the largest crash-point index any
// instance reached. Fault sweeps run a workload once under an OpCounter to
// learn how many kill points exist, then iterate CrashNthOp over them.
type OpCounter struct {
	mu  sync.Mutex
	max map[string]int
}

// ShouldCrash implements FaultPlan; it never crashes, only counts.
func (o *OpCounter) ShouldCrash(fn, _ string, opIndex int) bool {
	o.mu.Lock()
	if o.max == nil {
		o.max = make(map[string]int)
	}
	if opIndex > o.max[fn] {
		o.max[fn] = opIndex
	}
	o.mu.Unlock()
	return false
}

// Max reports the largest op index seen for fn.
func (o *OpCounter) Max(fn string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.max[fn]
}

// Total sums the op counts across functions.
func (o *OpCounter) Total() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, v := range o.max {
		n += v
	}
	return n
}

// Functions lists functions that hit at least one crash point.
func (o *OpCounter) Functions() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.max))
	for fn := range o.max {
		out = append(out, fn)
	}
	return out
}
