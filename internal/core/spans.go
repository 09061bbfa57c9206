package core

import (
	"sort"
	"strings"

	"repro/internal/dynamo"
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
// It synthesizes spans for every intent and invoke-log row in the backend:
// one exec span per intent (timestamps from StartTime and LastLaunch,
// microsecond precision; Replay marks an intent whose LastLaunch advanced
// past its StartTime, i.e. a collector restart) and one call span per
// invoke-log row. Feed the result to telemetry's Roots/Assemble/Render —
// that is what `beldi-trace -wal` does.
func DurableSpans(b storage.Backend) ([]telemetry.Span, error) {
	var spans []telemetry.Span
	calleeFn := make(map[string]string) // callee intent id → function name
	type pendingCall struct {
		caller, step, callee string
		done                 bool
		fn                   string
	}
	var calls []pendingCall
	intentStart := make(map[string]int64)

	for _, table := range b.TableNames() {
		switch {
		case strings.HasSuffix(table, intentSuffix):
			fn := strings.TrimSuffix(table, intentSuffix)
			rows, err := b.Scan(table, dynamo.QueryOpts{})
			if err != nil {
				return nil, err
			}
			for _, it := range rows {
				rec := decodeIntent(it)
				calleeFn[rec.id] = fn
				start := rec.startTime * 1000 // µs → ns
				last := rec.lastLaunch * 1000
				intentStart[rec.id] = start
				sp := telemetry.Span{
					Intent:       rec.id,
					Kind:         telemetry.KindExec,
					Fn:           fn,
					Start:        start,
					End:          last,
					Replay:       last > start,
					ParentIntent: rec.args.CallerInstance,
					ParentStep:   rec.args.CallerStep,
				}
				if !rec.done {
					sp.Err = "pending"
				}
				spans = append(spans, sp)
			}
		case strings.HasSuffix(table, invokeLogSuffix):
			fn := strings.TrimSuffix(table, invokeLogSuffix)
			rows, err := b.Scan(table, dynamo.QueryOpts{})
			if err != nil {
				return nil, err
			}
			for _, it := range rows {
				callee, ok := it[attrCalleeID]
				if !ok {
					continue // a result-only callback row or read-log shape
				}
				_, done := it[attrResult]
				calls = append(calls, pendingCall{
					caller: it[attrID].Str(),
					step:   it[attrStep].Str(),
					callee: callee.Str(),
					done:   done,
					fn:     fn,
				})
			}
		}
	}

	for _, c := range calls {
		sp := telemetry.Span{
			Intent: c.caller,
			Step:   c.step,
			Kind:   telemetry.KindCall,
			Fn:     c.fn,
			Name:   calleeFn[c.callee],
			Child:  c.callee,
			Start:  intentStart[c.callee],
			End:    intentStart[c.callee],
		}
		if !c.done {
			sp.Err = "no result"
		}
		spans = append(spans, sp)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Intent < spans[j].Intent
	})
	return spans, nil
}
