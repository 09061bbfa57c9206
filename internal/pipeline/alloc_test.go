package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dynamo"
	"repro/internal/raceflag"
)

// The flush's allocation budget, in the idiom of
// internal/dynamo/alloc_test.go: the capture buffers and the dirty set are
// reused from flush to flush, so a flush allocates the post-images it reads
// from the shadow (one attribute map per row: 16 of the 37 below) and what
// the base allocates to install them (21; 29 while the store kept each row
// in a Go map of its own, where it now keeps one attribute list), and nothing
// for its own bookkeeping. Before the buffers were reused the same flush cost
// 51: a fresh entry slice, op slice and dirty map per flush, and sort.Slice's
// reflection.

// flushBudget is allocations per flush of flushRows dirty rows over the
// in-memory store.
const (
	flushRows   = 8
	flushBudget = 37
)

func TestFlushAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := manual(t, newBase(t))
	var counts []uint64
	for round := 0; round < 41; round++ {
		for i := 0; i < flushRows; i++ {
			if err := p.Update("kv", dynamo.HK(dynamo.S(fmt.Sprintf("k%d", i))), nil,
				dynamo.Set(dynamo.A("V"), dynamo.NInt(int64(round)))); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		wrote, err := p.FlushStep()
		runtime.ReadMemStats(&m1)
		if err != nil || !wrote {
			t.Fatalf("FlushStep = %v, %v", wrote, err)
		}
		if round > 0 { // the first flush sizes the buffers
			counts = append(counts, m1.Mallocs-m0.Mallocs)
		}
	}
	slices.Sort(counts)
	if got := counts[len(counts)/2]; got != flushBudget {
		t.Errorf("a flush of %d rows: %d allocations, want %d", flushRows, got, flushBudget)
	}
}

// TestFenceLeavesNoPostImageInCaptureBuffers: the capture buffers outlive the
// flush that filled them, so once Fence returns they must hold nothing — a
// flushed row's post-image left there would stay reachable until the next
// flush overwrote it.
func TestFenceLeavesNoPostImageInCaptureBuffers(t *testing.T) {
	for _, manualFlush := range []bool{true, false} {
		t.Run(fmt.Sprintf("manual=%v", manualFlush), func(t *testing.T) {
			p, err := New(newBase(t), Options{ManualFlush: manualFlush})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for i := 0; i < 5; i++ {
				if err := p.Put("kv", dynamo.Item{"K": dynamo.S(fmt.Sprintf("k%d", i)), "V": dynamo.NInt(int64(i))}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Delete("kv", dynamo.HK(dynamo.S("k0")), nil); err != nil {
				t.Fatal(err)
			}
			if err := p.Fence(); err != nil {
				t.Fatal(err)
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			ops, entries := p.ops[:cap(p.ops)], p.entries[:cap(p.entries)]
			if len(ops) == 0 || len(entries) == 0 {
				t.Fatalf("no flush went through the capture buffers (%d ops, %d entries)", len(ops), len(entries))
			}
			for i, op := range ops {
				if !reflect.ValueOf(op).IsZero() {
					t.Errorf("ops[%d] still holds %+v after Fence", i, op)
				}
			}
			for i, e := range entries {
				if !reflect.ValueOf(e).IsZero() {
					t.Errorf("entries[%d] still holds %+v after Fence", i, e)
				}
			}
			if len(p.dirty) != 0 {
				t.Errorf("%d dirty rows after Fence", len(p.dirty))
			}
		})
	}
}
