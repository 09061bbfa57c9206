package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// Sealed tables. The read log exists because a value can change between an
// execution and its re-execution (§4). A sealed table cannot change: its
// writes are refused from the seal on. So a read of one keeps its step key,
// its crash points and its span, answers from the read log first — a read a
// previous execution logged before the seal replays that value — and
// otherwise serves the one value the key will ever hold, from a cache on the
// runtime, queueing no read-log row.
//
// The seal is recorded as an empty marker table, <fn>.sealed.<logical>: the
// store's table list already survives a restart, crosses the wire and
// replays from the WAL, so no format changes and no row exists for the GC,
// Fsck or inspect to skip. A runtime adopts a seal when it registers the
// table over a store that already had it (CreateDataTable); a runtime opened
// before the seal does not see it, so sealing is a load-phase call.

// ErrTableSealed reports a write, conditional write or lock of a sealed
// table. It is refused before any step key is taken or any store op is made.
var ErrTableSealed = errors.New("core: table is sealed")

// ErrSealPending reports a Seal refused because the owning function has
// pending intents: one that wrote the table, or read it under a lock, could
// not re-execute once the table is sealed. Recover them (the collectors)
// and seal again.
var ErrSealPending = errors.New("core: seal refused: the function has pending intents")

// sealedTable is one sealed table's read cache: the values of the keys a
// read found. Nothing can write the table, so an entry never goes stale; an
// absent key is not cached, so the cache holds at most the table's rows.
type sealedTable struct {
	mu   sync.RWMutex
	vals map[string]Value
}

// Seal makes the logical table read-only for good: it writes the durable
// marker, then refuses every later write through this runtime and serves
// its reads from memory. Sealing twice is harmless. While the function has
// a pending intent, Seal fails with ErrSealPending and leaves no marker.
func (rt *Runtime) Seal(logical string) error {
	rt.mu.RLock()
	_, ok := rt.dataTableNames[logical]
	rt.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: %s: seal %q: no such data table", rt.fn, logical)
	}
	if rt.mode != ModeBaseline { // a baseline SSF keeps no intents
		n, err := PendingIntents(rt.store, rt.fn)
		if err == nil && n > 0 {
			err = fmt.Errorf("%w: %d pending", ErrSealPending, n)
		}
		if err != nil {
			return fmt.Errorf("core: %s: seal %q: %w", rt.fn, logical, err)
		}
	}
	if _, err := rt.createOrAdopt(dynamo.Schema{Name: rt.sealMarker(logical), HashKey: attrKey}); err != nil {
		return fmt.Errorf("core: %s: seal %q: %w", rt.fn, logical, err)
	}
	rt.markSealed(logical)
	return nil
}

// sealMarker is the name of logical's seal marker table.
func (rt *Runtime) sealMarker(logical string) string { return rt.fn + sealedInfix + logical }

// adoptSeal marks logical sealed when its marker table exists: the one
// TableSchema call a runtime pays for registering a table the store already
// had.
func (rt *Runtime) adoptSeal(logical string) error {
	_, err := rt.store.TableSchema(rt.sealMarker(logical))
	switch {
	case err == nil:
		rt.markSealed(logical)
	case !errors.Is(err, storage.ErrNoSuchTable):
		return err
	}
	return nil
}

// markSealed adds logical to the sealed set, copying it: readers load the
// set without a lock.
func (rt *Runtime) markSealed(logical string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := rt.sealed.Load()
	if old != nil && (*old)[logical] != nil {
		return
	}
	next := make(map[string]*sealedTable, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[logical] = &sealedTable{vals: make(map[string]Value)}
	rt.sealed.Store(&next)
}

// sealedTable returns logical's cache, or nil when the table is not sealed.
func (rt *Runtime) sealedTable(logical string) *sealedTable {
	if m := rt.sealed.Load(); m != nil {
		return (*m)[logical]
	}
	return nil
}

// refuseSealed is the write path's check: ErrTableSealed for a sealed table.
func (rt *Runtime) refuseSealed(logical, key string) error {
	if rt.sealedTable(logical) == nil {
		return nil
	}
	return fmt.Errorf("%w: %s %s/%s", ErrTableSealed, rt.fn, logical, key)
}

// read returns key's value: from the cache, or by one state read that a
// found key's value then fills.
func (st *sealedTable) read(layer kvLayer, logical, key string) (Value, error) {
	st.mu.RLock()
	val, ok := st.vals[key]
	st.mu.RUnlock()
	if ok {
		return val, nil
	}
	val, _, found, err := layer.stateRead(logical, key)
	if err != nil || !found {
		return val, err
	}
	st.mu.Lock()
	st.vals[key] = val
	st.mu.Unlock()
	return val, nil
}
