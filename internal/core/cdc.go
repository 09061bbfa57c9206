package core

import (
	"fmt"
	"sync"

	"repro/internal/dynamo"
)

// Table-change (CDC) event sources: a change handler is an SSF subscribed to
// committed writes on another SSF's logical table. The subscription does not
// tail the storage commit stream — wakeup hints carry no payload and no
// exactly-once contract — it rides the write path itself: after an Env.Write
// or taken Env.CondWrite commits, the runtime fires each registered handler
// through the ordinary §4.5 asyncInvoke protocol, as a logged step of the
// writing instance. That placement buys the full Beldi guarantee chain for
// free: a crash before the step re-executes the write (a replay) and then
// fires; a crash inside the step is deduplicated by the invoke log; the
// handler's own run is an intent with at-least-once delivery and
// intent-table dedup. Net: exactly one handler intent per committed change,
// with the change event as its input.
//
// Scope: handlers fire for writes made through the Beldi API outside
// transactions. ModeBaseline has none of the logging machinery and emits
// nothing; transactional writes do not emit either (AsyncInvoke is not
// supported inside transactions, §6.2) — a workflow that needs a
// transactional change feed invokes the downstream SSF as part of the
// transaction instead. Handlers that write to tables they themselves watch
// recurse; bounding that is the application's responsibility, exactly as
// with self-invoking SSFs.

// Change-event payload keys: the input a change handler receives is a Map
// with these entries.
const (
	ChangeEvTable    = "Table"    // logical table name, as registered
	ChangeEvKey      = "Key"      // written row's key
	ChangeEvValue    = "Value"    // value as written (post-image)
	ChangeEvFn       = "Fn"       // writing SSF's function name
	ChangeEvInstance = "Instance" // writing instance's id
)

// cdcRegistry is the per-runtime table→handlers map. Registration happens at
// deployment setup, before instances execute; the read path takes the lock
// only when at least one handler is registered.
type cdcRegistry struct {
	mu   sync.RWMutex
	any  bool
	subs map[string][]string
}

// RegisterChangeHandler subscribes handler (a registered SSF's function
// name) to committed writes on this SSF's logical table. Handlers fire in
// registration order, as logged steps of the writing instance — register
// before workflows run and identically across restarts, like function
// registration itself, so re-executions replay the same step sequence.
// Duplicate registrations are dropped.
func (rt *Runtime) RegisterChangeHandler(table, handler string) {
	if table == "" || handler == "" {
		panic("core: RegisterChangeHandler: table and handler are required")
	}
	rt.cdc.mu.Lock()
	defer rt.cdc.mu.Unlock()
	if rt.cdc.subs == nil {
		rt.cdc.subs = make(map[string][]string)
	}
	for _, h := range rt.cdc.subs[table] {
		if h == handler {
			return
		}
	}
	rt.cdc.subs[table] = append(rt.cdc.subs[table], handler)
	rt.cdc.any = true
}

// changeHandlers returns the handlers registered for logical table, in
// registration order.
func (rt *Runtime) changeHandlers(table string) []string {
	if !rt.cdcActive() {
		return nil
	}
	rt.cdc.mu.RLock()
	defer rt.cdc.mu.RUnlock()
	return rt.cdc.subs[table]
}

func (rt *Runtime) cdcActive() bool {
	rt.cdc.mu.RLock()
	defer rt.cdc.mu.RUnlock()
	return rt.cdc.any
}

// emitChanges fires the change handlers registered for logical after a
// committed write of v at key — each fire is one logged asyncInvoke step of
// this instance (see the file comment for the exactly-once argument).
// Called from the non-transactional, non-baseline write paths only.
func (e *Env) emitChanges(logical, key string, v Value) error {
	handlers := e.rt.changeHandlers(logical)
	if len(handlers) == 0 {
		return nil
	}
	ev := dynamo.Fields(
		dynamo.F(ChangeEvTable, dynamo.S(logical)),
		dynamo.F(ChangeEvKey, dynamo.S(key)),
		dynamo.F(ChangeEvValue, v),
		dynamo.F(ChangeEvFn, dynamo.S(e.rt.fn)),
		dynamo.F(ChangeEvInstance, dynamo.S(e.instanceID)),
	)
	for _, h := range handlers {
		if _, _, err := e.asyncInvoke(h, ev, false); err != nil {
			return fmt.Errorf("core: change handler %s for table %s: %w", h, logical, err)
		}
		e.rt.stats.ChangeEvents.Add(1)
	}
	return nil
}
