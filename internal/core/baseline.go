package core

import (
	"errors"

	"repro/internal/dynamo"
	"repro/internal/platform"
)

// Baseline mode (§7.2): the same application bodies run against raw store
// and platform operations with no logging, no intent table, no callbacks,
// no locks and no transactions — and therefore none of Beldi's guarantees.
// A crashed instance leaves partial state behind; concurrent transactions
// interleave freely. The evaluation figures measure Beldi against exactly
// this configuration.

func (rt *Runtime) baselineHandler(inv *platform.Invocation, raw Value) (Value, error) {
	ev := decodeEnvelope(raw)
	id := ev.InstanceID
	if id == "" {
		id = inv.RequestID()
	}
	return rt.body(newEnv(rt, inv, id, &intentRecord{id: id}, ev.App), ev.Input)
}

func (e *Env) baselineRead(table, key string) (Value, error) {
	e.crash("read", "")
	it, ok, err := e.rt.store.Get(e.rt.dataTable(table), dynamo.HK(dynamo.S(key)))
	if err != nil || !ok {
		return dynamo.Null, err
	}
	return it[attrValue], nil
}

func (e *Env) baselineWrite(table, key string, v Value) error {
	e.crash("write", "")
	return e.rt.store.Update(e.rt.dataTable(table), dynamo.HK(dynamo.S(key)), nil,
		dynamo.Set(dynamo.A(attrValue), v))
}

func (e *Env) baselineCondWrite(table, key string, v Value, cond dynamo.Cond) (bool, error) {
	e.crash("condwrite", "")
	err := e.rt.store.Update(e.rt.dataTable(table), dynamo.HK(dynamo.S(key)), cond,
		dynamo.Set(dynamo.A(attrValue), v))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return false, nil
	}
	return false, err
}

func (e *Env) baselineSyncInvoke(callee string, input Value) (Value, error) {
	e.crash("invoke", "")
	return e.rt.plat.InvokeInternal(callee, envelope{Kind: kindCall, Input: input, App: e.shared.app}.encode())
}

func (e *Env) baselineAsyncInvoke(callee string, input Value) error {
	e.crash("ainvoke", "")
	return e.rt.plat.InvokeAsyncInternal(callee, envelope{Kind: kindCall, Input: input, App: e.shared.app}.encode())
}
