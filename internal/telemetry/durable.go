package telemetry

import (
	"sort"
	"strings"

	"repro/internal/storage"
)

// This file reconstructs traces from the durable tables alone — no live
// tracer required. Beldi's intent table keeps every instance's invocation
// envelope (with the caller's instance and step), and the invoke log keeps
// every (caller instance, step) → callee-id edge, so the causal structure
// of a workflow survives in the store and can be rendered after the fact,
// from a reopened WAL dir included. The attribute names below mirror
// core's table schema (see internal/core/runtime.go); the round-trip is
// pinned by a test that drives a real deployment and reconstructs it.

const (
	durIntentSuffix = ".intent"
	durInvokeSuffix = ".invokelog"

	durAttrInstanceID = "InstanceId"
	durAttrID         = "Id"
	durAttrDone       = "Done"
	durAttrArgs       = "Args"
	durAttrStartTime  = "StartTime"
	durAttrLastLaunch = "LastLaunch"
	durAttrStep       = "Step"
	durAttrCalleeID   = "CalleeId"
	durAttrResult     = "Result"
)

// DurableSpans synthesizes spans for every intent and invoke-log row in
// the backend: one exec span per intent (timestamps from StartTime and
// LastLaunch, microsecond precision; Replay marks an intent whose
// LastLaunch advanced past its StartTime, i.e. a collector restart) and
// one call span per invoke-log row. Feed the result to Roots/Assemble/
// Render — that is what `beldi-trace -wal` does.
func DurableSpans(b storage.Backend) ([]Span, error) {
	var spans []Span
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
		case strings.HasSuffix(table, durIntentSuffix):
			fn := strings.TrimSuffix(table, durIntentSuffix)
			rows, err := b.Scan(table, storage.QueryOpts{})
			if err != nil {
				return nil, err
			}
			for _, it := range rows {
				id := it[durAttrInstanceID].Str()
				calleeFn[id] = fn
				start := it[durAttrStartTime].Int() * 1000 // µs → ns
				last := it[durAttrLastLaunch].Int() * 1000
				intentStart[id] = start
				sp := Span{
					Intent: id,
					Kind:   KindExec,
					Fn:     fn,
					Start:  start,
					End:    last,
					Replay: last > start,
				}
				if !it[durAttrDone].BoolVal() {
					sp.Err = "pending"
				}
				if v, ok := it[durAttrArgs].MapGet("CallerInstance"); ok {
					sp.ParentIntent = v.Str()
					sp.ParentStep = it[durAttrArgs].Get("CallerStep").Str()
				}
				spans = append(spans, sp)
			}
		case strings.HasSuffix(table, durInvokeSuffix):
			fn := strings.TrimSuffix(table, durInvokeSuffix)
			rows, err := b.Scan(table, storage.QueryOpts{})
			if err != nil {
				return nil, err
			}
			for _, it := range rows {
				callee, ok := it[durAttrCalleeID]
				if !ok {
					continue // a result-only callback row or read-log shape
				}
				_, done := it[durAttrResult]
				calls = append(calls, pendingCall{
					caller: it[durAttrID].Str(),
					step:   it[durAttrStep].Str(),
					callee: callee.Str(),
					done:   done,
					fn:     fn,
				})
			}
		}
	}

	for _, c := range calls {
		sp := Span{
			Intent: c.caller,
			Step:   c.step,
			Kind:   KindCall,
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
