package core

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// DurableSpans reconstructs traces from the durable tables alone — no live
// tracer required. The intent table keeps every instance's invocation
// envelope (with the caller's instance and step), and the invoke log keeps
// every (caller instance, step) → callee-id edge, so the causal structure
// of a workflow survives in the store and can be rendered after the fact,
// from a reopened WAL dir included.
//
// It walks every function with an intent table in the backend (inspect)
// and synthesizes one exec span per intent (timestamps from StartTime and
// LastLaunch, microsecond precision; Replay marks an intent whose
// LastLaunch advanced past its StartTime, i.e. a collector restart) and one
// call span per invoke-log edge. Feed the result to telemetry's
// Roots/Assemble/Render — that is what `beldi-trace -wal` does.
func DurableSpans(b storage.Backend) ([]telemetry.Span, error) {
	var spans []telemetry.Span
	execOf := make(map[string]telemetry.Span) // intent id → its exec span
	for _, table := range b.TableNames() {
		fn, ok := strings.CutSuffix(table, intentSuffix)
		if !ok {
			continue
		}
		ds, err := inspect(b, fn)
		if err != nil {
			return nil, err
		}
		for _, in := range ds.intents {
			sp := telemetry.Span{Intent: in.id, Kind: telemetry.KindExec, Fn: fn,
				Start: in.startTime * 1000, End: in.lastLaunch * 1000, // µs → ns
				ParentIntent: in.args.CallerInstance, ParentStep: in.args.CallerStep}
			sp.Replay = sp.End > sp.Start
			if !in.done {
				sp.Err = "pending"
			}
			execOf[in.id] = sp
			spans = append(spans, sp)
		}
		for _, e := range ds.logs[fn+invokeLogSuffix] {
			if e.callee == "" {
				continue // a row that names no callee
			}
			sp := telemetry.Span{Intent: e.owner, Step: e.step, Kind: telemetry.KindCall, Fn: fn, Child: e.callee}
			if !e.done {
				sp.Err = "no result"
			}
			spans = append(spans, sp)
		}
	}
	// A callee's name and start are known once every intent table is read.
	for i := range spans {
		if sp := &spans[i]; sp.Kind == telemetry.KindCall {
			ex := execOf[sp.Child]
			sp.Name, sp.Start, sp.End = ex.Fn, ex.Start, ex.Start
		}
	}
	slices.SortFunc(spans, func(a, b telemetry.Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), strings.Compare(a.Intent, b.Intent))
	})
	return spans, nil
}
