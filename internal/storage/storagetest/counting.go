package storagetest

import (
	"fmt"
	"sync"

	"repro/internal/storage"
)

// Counting wraps a backend and counts its data-plane calls by table and kind
// ("get", "put", "update", "delete", "query", "scan", "transact") — the
// per-table view of the billed requests that Backend.Metrics only totals.
// Op-budget tests pin exact counts with it. A TransactWrite counts once,
// against the table of its first op. It forwards Watch to the wrapped
// backend, so push consumers behave as they do without it.
type Counting struct {
	storage.Backend

	mu  sync.Mutex
	ops map[string]int // "table kind"
}

// NewCounting wraps b.
func NewCounting(b storage.Backend) *Counting {
	return &Counting{Backend: b, ops: make(map[string]int)}
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

// Get counts and forwards.
func (c *Counting) Get(table string, key storage.Key) (storage.Item, bool, error) {
	c.count(table, "get")
	return c.Backend.Get(table, key)
}

// GetProj counts (as a get) and forwards.
func (c *Counting) GetProj(table string, key storage.Key, proj []storage.Path) (storage.Item, bool, error) {
	c.count(table, "get")
	return c.Backend.GetProj(table, key, proj)
}

// Put counts and forwards.
func (c *Counting) Put(table string, item storage.Item, cond storage.Cond) error {
	c.count(table, "put")
	return c.Backend.Put(table, item, cond)
}

// Update counts and forwards.
func (c *Counting) Update(table string, key storage.Key, cond storage.Cond, updates ...storage.Update) error {
	c.count(table, "update")
	return c.Backend.Update(table, key, cond, updates...)
}

// Delete counts and forwards.
func (c *Counting) Delete(table string, key storage.Key, cond storage.Cond) error {
	c.count(table, "delete")
	return c.Backend.Delete(table, key, cond)
}

// Query counts and forwards.
func (c *Counting) Query(table string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	c.count(table, "query")
	return c.Backend.Query(table, hash, opts)
}

// QueryIndex counts (as a query) and forwards.
func (c *Counting) QueryIndex(table, index string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	c.count(table, "query")
	return c.Backend.QueryIndex(table, index, hash, opts)
}

// Scan counts and forwards.
func (c *Counting) Scan(table string, opts storage.QueryOpts) ([]storage.Item, error) {
	c.count(table, "scan")
	return c.Backend.Scan(table, opts)
}

// TransactWrite counts once, against its first op's table, and forwards.
func (c *Counting) TransactWrite(ops []storage.TxOp) error {
	if len(ops) > 0 {
		c.count(ops[0].Table, "transact")
	}
	return c.Backend.TransactWrite(ops)
}

// Watch forwards to the wrapped backend's commit stream.
func (c *Counting) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	if sub, ok := storage.Watch(c.Backend, table, hash); ok {
		return sub, nil
	}
	return nil, fmt.Errorf("storagetest: no push subscription on %s from %T", table, c.Backend)
}
