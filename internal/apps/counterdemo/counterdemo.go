// Package counterdemo is the shared application for the multi-process
// cluster demo and the SIGKILL recovery tests: an "ingest" entry SSF that
// fans each request out through durable AsyncInvoke to a "counter" SSF
// whose only effect is incrementing the request's own key — an effect that
// makes lost executions (a counter at 0) and duplicated executions (a
// counter at 2) directly countable after a crash. Every process of a pool
// registers this same app; the orchestrator registers counter intents
// through ingest, worker processes' collectors launch them, and the audit
// asserts every counter is exactly 1.
package counterdemo

import (
	"fmt"

	"repro/beldi"
)

// Function and table names.
const (
	FnIngest   = "ingest"
	FnCounter  = "counter"
	StateTable = "state"
)

// Register installs the demo app on a deployment. Every member of a pool
// (workers and orchestrator alike) must register the same set.
func Register(d *beldi.Deployment) {
	d.Function(FnIngest, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		// Durable handoff: the counter's intent is registered before this
		// call returns, so the increment survives any single process dying
		// after it.
		return beldi.Null, e.AsyncInvoke(FnCounter, in)
	})
	d.Function(FnCounter, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		key := in.Get("key").Str()
		v, err := e.Read(StateTable, key)
		if err != nil {
			return beldi.Null, err
		}
		next := beldi.Int(v.Int() + 1)
		if err := e.Write(StateTable, key, next); err != nil {
			return beldi.Null, err
		}
		return next, nil
	}, StateTable)
}

// Key formats the state key for request i.
func Key(i int) string { return fmt.Sprintf("k%02d", i) }

// Request builds the ingest/counter input for request i.
func Request(i int) beldi.Value {
	return beldi.Fields(beldi.F("key", beldi.Str(Key(i))))
}

// DropFires is the AsyncDispatch of a gateway process that runs no counter:
// it drops every in-process fire, so a counter's registration is all the
// gateway leaves and the pool's collectors launch every counter.
func DropFires(func()) {}
