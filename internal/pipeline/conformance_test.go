package pipeline_test

import (
	"testing"

	"repro/internal/dynamo"
	"repro/internal/pipeline"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// The overlay passes the backend conformance suite at Depth 1, where every
// write returns only once its own flush has reached the base. It runs at
// Depth 1 only: at the default depth a commit reaches a watcher when its
// batch flushes, not when the write returns — by design, so that nobody
// wakes for a write that is still speculative (see Store.Watch) — and the
// suite's WatchWakeOnCommit, WatchNoMissedCommit and WatchHashFilter expect
// the event by the time the write returns.
func TestConformanceDepth1(t *testing.T) {
	storagetest.Run(t, func(tb testing.TB) storage.Backend {
		p := pipeline.MustNew(dynamo.NewStore(), pipeline.Options{Depth: 1})
		tb.Cleanup(func() { p.Close() })
		return p
	})
}
