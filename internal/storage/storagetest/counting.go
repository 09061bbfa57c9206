package storagetest

import (
	"fmt"
	"sync"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// Counting wraps a backend and counts its data-plane calls by table and kind
// ("get", "put", "update", "delete", "query", "scan", "transact") — the
// per-table view of the billed requests that Backend.Metrics only totals.
// Op-budget tests pin exact counts with it. A TransactWrite counts once,
// against the table of its first op. It forwards Watch to the wrapped
// backend, so push consumers behave as they do without it.
type Counting struct {
	storage.Doer  // the wrapped backend's; its admin calls are Counting's
	storage.Calls // the typed data calls, each one counted Do

	mu  sync.Mutex
	ops map[string]int // "table kind"
}

// NewCounting wraps b.
func NewCounting(b storage.Backend) *Counting {
	c := &Counting{Doer: storage.DoerOf(b), ops: make(map[string]int)}
	c.Calls = storage.Calls{Doer: c}
	return c
}

func (c *Counting) count(table, kind string) {
	c.mu.Lock()
	c.ops[table+" "+kind]++
	c.mu.Unlock()
}

// Count returns how many calls of kind hit table.
func (c *Counting) Count(table, kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops[table+" "+kind]
}

// Counts returns a copy of every non-zero count, keyed
// "table kind".
func (c *Counting) Counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.ops))
	for k, v := range c.ops {
		out[k] = v
	}
	return out
}

// Do counts op by its table and kind — a GetProj as a get, a QueryIndex as
// a query, a TransactWrite once, against its first op's table — and
// forwards it.
func (c *Counting) Do(op storage.Op) (storage.Result, error) {
	switch {
	case op.Kind != dynamo.OpTxWrite:
		c.count(op.Table, op.Kind.String())
	case len(op.Tx) > 0:
		c.count(op.Tx[0].Table, "transact")
	}
	return c.Doer.Do(op)
}

// Watch forwards to the wrapped backend's commit stream.
func (c *Counting) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	b := storage.Typed(c.Doer)
	if sub, ok := storage.Watch(b, table, hash); ok {
		return sub, nil
	}
	return nil, fmt.Errorf("storagetest: no push subscription on %s from %T", table, b)
}
