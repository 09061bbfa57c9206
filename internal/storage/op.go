package storage

import (
	"fmt"

	"repro/internal/dynamo"
)

// Doer is the seam's data plane as one call: Admin plus Do, which runs any
// Op with the semantics the Backend call it stands for has. A layer that
// treats every call alike — the wire client and server, the speculation
// overlay, the WAL store, the simulator's scheduling wrapper, the op
// counter — implements Do once instead of Backend's nine typed calls, and
// embeds Calls to be a Backend too, so it keeps its other capabilities
// (Watcher, Fencer, DynamoStore) on the one value. Typed and DoerOf turn one
// form into the other.
type Doer interface {
	Admin
	// Do runs op; an unknown Kind is an error.
	Do(op Op) (Result, error)
}

// Calls is Backend's typed data calls, each one Do on Doer. A Doer that
// embeds a Calls made over itself — c.Calls = storage.Calls{Doer: c} — is a
// Backend.
type Calls struct{ Doer Doer }

// Get is Do of an OpGet.
func (c Calls) Get(table string, key Key) (Item, bool, error) {
	r, err := c.Doer.Do(Op{Kind: dynamo.OpGet, Table: table, Key: key})
	return r.Item, r.Found, err
}

// GetProj is Do of an OpGet with a projection.
func (c Calls) GetProj(table string, key Key, proj []Path) (Item, bool, error) {
	r, err := c.Doer.Do(Op{Kind: dynamo.OpGet, Table: table, Key: key, Opts: QueryOpts{Projection: proj}})
	return r.Item, r.Found, err
}

// Put is Do of an OpPut.
func (c Calls) Put(table string, item Item, cond Cond) error {
	_, err := c.Doer.Do(Op{Kind: dynamo.OpPut, Table: table, Item: item, Cond: cond})
	return err
}

// Update is Do of an OpUpdate.
func (c Calls) Update(table string, key Key, cond Cond, updates ...Update) error {
	_, err := c.Doer.Do(Op{Kind: dynamo.OpUpdate, Table: table, Key: key, Cond: cond, Updates: updates})
	return err
}

// Delete is Do of an OpDelete.
func (c Calls) Delete(table string, key Key, cond Cond) error {
	_, err := c.Doer.Do(Op{Kind: dynamo.OpDelete, Table: table, Key: key, Cond: cond})
	return err
}

// Query is Do of an OpQuery.
func (c Calls) Query(table string, hash Value, opts QueryOpts) ([]Item, error) {
	r, err := c.Doer.Do(Op{Kind: dynamo.OpQuery, Table: table, Key: Key{Hash: hash}, Opts: opts})
	return r.Items, err
}

// QueryIndex is Do of an OpQuery of an index.
func (c Calls) QueryIndex(table, index string, hash Value, opts QueryOpts) ([]Item, error) {
	r, err := c.Doer.Do(Op{Kind: dynamo.OpQuery, Table: table, Index: index, Key: Key{Hash: hash}, Opts: opts})
	return r.Items, err
}

// Scan is Do of an OpScan.
func (c Calls) Scan(table string, opts QueryOpts) ([]Item, error) {
	r, err := c.Doer.Do(Op{Kind: dynamo.OpScan, Table: table, Opts: opts})
	return r.Items, err
}

// TransactWrite is Do of an OpTxWrite.
func (c Calls) TransactWrite(ops []TxOp) error {
	_, err := c.Doer.Do(Op{Kind: dynamo.OpTxWrite, Tx: ops})
	return err
}

// typed is what Typed makes of a Doer that is not a Backend already.
type typed struct {
	Doer
	Calls
}

// Typed returns d as a Backend: d itself when it is one, the Backend DoerOf
// was given when d is its adapter, and otherwise d under Calls.
func Typed(d Doer) Backend {
	switch d := d.(type) {
	case doer:
		return d.Backend
	case Backend:
		return d
	}
	return typed{d, Calls{d}}
}

// DoerOf returns b as a Doer: b itself when it is one, the Doer Typed was
// given when b is its adapter, and otherwise b's typed calls under one Do.
// The adapter carries only the Doer methods: probe a capability (Watch,
// Fence, AsDynamo) on b.
func DoerOf(b Backend) Doer {
	switch b := b.(type) {
	case typed:
		return b.Doer
	case Doer:
		return b
	}
	return doer{b}
}

// doer is what DoerOf makes of a Backend that is not a Doer already.
type doer struct{ Backend }

// Do runs op as the typed call it stands for.
func (b doer) Do(op Op) (r Result, err error) {
	switch op.Kind {
	case dynamo.OpGet:
		if op.Opts.Projection != nil {
			r.Item, r.Found, err = b.GetProj(op.Table, op.Key, op.Opts.Projection)
		} else {
			r.Item, r.Found, err = b.Get(op.Table, op.Key)
		}
	case dynamo.OpPut:
		err = b.Put(op.Table, op.Item, op.Cond)
	case dynamo.OpUpdate:
		err = b.Update(op.Table, op.Key, op.Cond, op.Updates...)
	case dynamo.OpDelete:
		err = b.Delete(op.Table, op.Key, op.Cond)
	case dynamo.OpQuery:
		if op.Index != "" {
			r.Items, err = b.QueryIndex(op.Table, op.Index, op.Key.Hash, op.Opts)
		} else {
			r.Items, err = b.Query(op.Table, op.Key.Hash, op.Opts)
		}
	case dynamo.OpScan:
		r.Items, err = b.Scan(op.Table, op.Opts)
	case dynamo.OpTxWrite:
		err = b.TransactWrite(op.Tx)
	default:
		err = fmt.Errorf("storage: unknown op kind %d", op.Kind)
	}
	return r, err
}
