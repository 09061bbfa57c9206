// Package cron is the push-trigger demo app: a durable timer drives an
// "ingest" SSF (DurableAsync.ScheduleInvoke), and a table-change (CDC)
// handler — "index", subscribed to ingest's events table — maintains a
// derived count. Every edge in the chain is the at-least-once/exactly-once
// pairing under test: the timer fire is transactional (one registered
// intent per occurrence, ever, whose instance id is the occurrence's id),
// the intent collector relaunches the occurrence until it completes, and
// the CDC fire is a logged step of the ingest instance. The crash-sweep
// test kills both SSFs at every operation boundary and asserts the counts
// come out as if nothing had crashed.
package cron

import (
	"repro/beldi"
)

// Function and table names.
const (
	FnIngest = "cron.ingest"
	FnIndex  = "cron.index"

	// EventsTable (on ingest) holds one row per timer occurrence, keyed by
	// the occurrence's instance id. StateTable (on ingest) holds the running
	// total. IndexTable (on index) holds the CDC-derived count.
	EventsTable = "events"
	StateTable  = "state"
	IndexTable  = "index"
)

// Register installs the app on a deployment: ingest records each occurrence
// and bumps the total; index counts the change events the events table
// emits. Call before EnableDurableAsync.
func Register(d *beldi.Deployment) {
	d.Function(FnIngest, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		// One row per occurrence: the instance id IS the occurrence id
		// (registered by the timer fire), so a relaunched occurrence replays
		// this write instead of adding a row.
		if err := e.Write(EventsTable, e.InstanceID(), in); err != nil {
			return beldi.Null, err
		}
		// The classic exactly-once victim: a non-atomic read-increment-write.
		v, err := e.Read(StateTable, "total")
		if err != nil {
			return beldi.Null, err
		}
		if err := e.Write(StateTable, "total", beldi.Int(v.Int()+1)); err != nil {
			return beldi.Null, err
		}
		return beldi.Str("ingested"), nil
	}, EventsTable, StateTable)

	d.Function(FnIndex, func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		key, _ := in.MapGet(beldi.ChangeEvKey)
		if key.Str() == "" {
			return beldi.Null, nil // not a change event; ignore
		}
		n, err := e.Read(IndexTable, "count")
		if err != nil {
			return beldi.Null, err
		}
		if err := e.Write(IndexTable, "count", beldi.Int(n.Int()+1)); err != nil {
			return beldi.Null, err
		}
		return beldi.Null, nil
	}, IndexTable)

	if err := d.OnTableChange(FnIngest, EventsTable, FnIndex); err != nil {
		panic(err)
	}
}

// Total reads the committed occurrence total from ingest's state.
func Total(d *beldi.Deployment) (int64, error) {
	v, err := beldi.PeekState(d.Runtime(FnIngest), StateTable, "total")
	if err != nil {
		return 0, err
	}
	return v.Int(), nil
}

// Indexed reads the committed CDC-derived count from index's state.
func Indexed(d *beldi.Deployment) (int64, error) {
	v, err := beldi.PeekState(d.Runtime(FnIndex), IndexTable, "count")
	if err != nil {
		return 0, err
	}
	return v.Int(), nil
}
