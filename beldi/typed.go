package beldi

import (
	"context"
	"fmt"
)

// The typed facade: generic, compile-time-checked handles layered strictly
// on top of the dynamic Env API. Every typed operation is a plain dynamic
// operation plus the ToValue/FromValue codec, nothing else — no extra
// logged steps, no different storage layout — so typed and dynamic code
// interoperate freely on the same tables and the equivalence property test
// (typed_test.go) can pin them to identical observable state.

// TableOf is a typed handle on one of an SSF's logical tables: Get, Put
// and CondPut of T values. Construct with NewTable; handles are cheap
// values, safe to declare once at package level and share.
type TableOf[T any] struct {
	name string
}

// NewTable returns a typed handle on logical table name (the same name
// passed to Deployment.Function's table list).
func NewTable[T any](name string) TableOf[T] { return TableOf[T]{name: name} }

// Name returns the logical table name.
func (t TableOf[T]) Name() string { return t.name }

// Get reads key with Env.Read semantics (logged, exactly-once, locked
// inside transactions) and decodes it into a T. Never-written keys decode
// as the zero T.
func (t TableOf[T]) Get(e *Env, key string) (T, error) {
	var out T
	v, err := e.Read(t.name, key)
	if err != nil {
		return out, err
	}
	err = FromValue(v, &out)
	return out, err
}

// Put writes v at key with Env.Write semantics.
func (t TableOf[T]) Put(e *Env, key string, v T) error {
	val, err := ToValue(v)
	if err != nil {
		return err
	}
	return e.Write(t.name, key, val)
}

// CondPut writes v at key only if cond holds against the item's current
// state, with Env.CondWrite semantics; it reports whether the write took
// effect.
func (t TableOf[T]) CondPut(e *Env, key string, v T, cond Cond) (bool, error) {
	val, err := ToValue(v)
	if err != nil {
		return false, err
	}
	return e.CondWrite(t.name, key, val, cond)
}

// Func is a typed handle on a registered SSF: invocations with In/Out
// types checked at compile time, encoded through the same envelopes as the
// dynamic API. Construct with RegisterFunc, or with FuncOf for a function
// registered elsewhere.
type Func[In, Out any] struct {
	name string
	d    *Deployment
}

// RegisterFunc registers body as an SSF named name on d, with typed input
// and output: the dynamic Value input is decoded into an In before body
// runs, and body's Out return is encoded back. Codec failures fail the
// invocation (and, like any instance error, leave the intent to the
// collector). The handle's typed invocation methods target d.
func RegisterFunc[In, Out any](d *Deployment, name string, body func(*Env, In) (Out, error), tables ...string) Func[In, Out] {
	d.Function(name, func(e *Env, input Value) (Value, error) {
		var in In
		if err := FromValue(input, &in); err != nil {
			return Null, fmt.Errorf("beldi: %s: decoding input: %w", name, err)
		}
		out, err := body(e, in)
		if err != nil {
			return Null, err
		}
		v, verr := ToValue(out)
		if verr != nil {
			return Null, fmt.Errorf("beldi: %s: encoding output: %w", name, verr)
		}
		return v, nil
	}, tables...)
	return Func[In, Out]{name: name, d: d}
}

// FuncOf returns a typed handle on an already-registered function — the
// caller asserts the In/Out shape. Use RegisterFunc where possible; FuncOf
// exists for composing against functions registered by other packages.
func FuncOf[In, Out any](d *Deployment, name string) Func[In, Out] {
	return Func[In, Out]{name: name, d: d}
}

// Name returns the function's registered name.
func (f Func[In, Out]) Name() string { return f.name }

// Invoke calls the function synchronously from outside any workflow, like
// Deployment.Invoke, with typed input and output.
func (f Func[In, Out]) Invoke(in In) (Out, error) {
	return f.InvokeCtx(context.Background(), in)
}

// InvokeCtx is Invoke bounded by a context, with Deployment.InvokeCtx's
// cancellation semantics.
func (f Func[In, Out]) InvokeCtx(ctx context.Context, in In) (Out, error) {
	var out Out
	v, err := ToValue(in)
	if err != nil {
		return out, err
	}
	res, err := f.d.InvokeCtx(ctx, f.name, v)
	if err != nil {
		return out, err
	}
	err = FromValue(res, &out)
	return out, err
}

// Call invokes the function from inside a workflow with Env.SyncInvoke
// semantics (exactly-once, transaction context propagated).
func (f Func[In, Out]) Call(e *Env, in In) (Out, error) {
	var out Out
	v, err := ToValue(in)
	if err != nil {
		return out, err
	}
	res, err := e.SyncInvoke(f.name, v)
	if err != nil {
		return out, err
	}
	err = FromValue(res, &out)
	return out, err
}

// Async starts the function asynchronously with Env.AsyncInvokePromise
// semantics and returns a typed promise on its result.
func (f Func[In, Out]) Async(e *Env, in In) (*PromiseOf[Out], error) {
	v, err := ToValue(in)
	if err != nil {
		return nil, err
	}
	p, err := e.AsyncInvokePromise(f.name, v)
	if err != nil {
		return nil, err
	}
	return &PromiseOf[Out]{p: p}, nil
}

// PromiseOf is a Promise whose result decodes to T.
type PromiseOf[T any] struct {
	p *Promise
}

// Promise returns the underlying dynamic promise.
func (p *PromiseOf[T]) Promise() *Promise { return p.p }

// Await resolves the promise with Promise.Await semantics (a logged step;
// identical results across crash and replay) and decodes the result.
func (p *PromiseOf[T]) Await(e *Env) (T, error) {
	var out T
	v, err := p.p.Await(e)
	if err != nil {
		return out, err
	}
	err = FromValue(v, &out)
	return out, err
}

// AwaitAllOf resolves typed promises in order and returns their decoded
// values — Env.AwaitAll for a homogeneous typed fan-out, so the fan-in waits
// once for all its results and each Await stays its own logged step.
func AwaitAllOf[T any](e *Env, ps ...*PromiseOf[T]) ([]T, error) {
	raw := make([]*Promise, len(ps))
	for i, p := range ps {
		raw[i] = p.p
	}
	vals, err := e.AwaitAll(raw...)
	if err != nil {
		return nil, err
	}
	outs := make([]T, len(ps))
	for i, v := range vals {
		if err := FromValue(v, &outs[i]); err != nil {
			return nil, err
		}
	}
	return outs, nil
}
