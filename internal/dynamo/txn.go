package dynamo

import (
	"fmt"
	"sort"
)

// TxOp is one operation inside a TransactWrite: exactly one of Put, Updates,
// Delete, or Check semantics, each optionally guarded by Cond. This mirrors
// DynamoDB's TransactWriteItems, which the paper's cross-table-transaction
// comparator (§7.3) uses to pair a data write with a log append across
// tables, and whose ConditionCheck element (Check here) lets a write in one
// row hinge atomically on the state of another — the fencing primitive the
// cluster runtime builds lease-guarded claims on.
type TxOp struct {
	Table string
	Key   Key
	Cond  Cond

	// Put replaces the row with this item (Key must match the item's key
	// attributes, which callers typically include). As with Store.Put, the
	// store keeps its own attribute list and shares the values.
	Put Item
	// Updates applies update actions (upsert, like Store.Update).
	Updates []Update
	// Delete removes the row.
	Delete bool
	// Check asserts Cond against the row at Key without writing anything —
	// DynamoDB's ConditionCheck. The whole transaction fails if the
	// condition does not hold at commit time.
	Check bool
}

// TransactWrite applies all ops atomically: either every condition passes
// and every op applies, or nothing does and a *TxCanceledError describes the
// per-op outcomes. Ops must target distinct rows (DynamoDB rejects duplicate
// targets inside one transaction).
func (s *Store) TransactWrite(ops []TxOp) error {
	if len(ops) == 0 {
		return nil
	}
	// Bookkeeping stays proportional to what the ops do not already hold: a
	// prepared op points into ops (a Put's derived key is the one copy), the
	// duplicate check keys on the comparable keys the shard lookup needs
	// anyway, and the shards to lock — few, however many rows — are a
	// linearly deduplicated slice.
	type prepared struct {
		t   *table
		key *Key
		sh  *shard
	}
	type target struct {
		table      string
		hash, sort ScalarKey
	}
	preps := make([]prepared, len(ops))
	seen := make(map[target]struct{}, len(ops))
	type lockTarget struct {
		name string // table name, primary lock-order key
		idx  int    // shard index within the table
		sh   *shard
	}
	var locks []lockTarget
	for i := range ops {
		op := &ops[i]
		t, err := s.table(op.Table)
		if err != nil {
			return err
		}
		key := &op.Key
		if op.Put != nil {
			k, err := t.keyOf(op.Put)
			if err != nil {
				return err
			}
			key = &k
		}
		hk := KeyOf(key.Hash)
		tg := target{op.Table, hk, KeyOf(key.Sort)}
		if _, dup := seen[tg]; dup {
			return fmt.Errorf("dynamo: TransactWrite: duplicate target %s %s", op.Table, *key)
		}
		seen[tg] = struct{}{}
		idx := hk.stripe(len(t.shards))
		sh := t.shards[idx]
		preps[i] = prepared{t: t, key: key, sh: sh}
		held := false
		for _, lt := range locks {
			held = held || lt.sh == sh
		}
		if !held {
			locks = append(locks, lockTarget{name: op.Table, idx: idx, sh: sh})
		}
	}

	// Lock the involved shards in (table name, shard index) order to avoid
	// deadlock with concurrent transactions, then check all conditions before
	// applying anything. Single-row writers hold at most one shard lock and
	// acquire no others, so they cannot participate in a cycle.
	sort.Slice(locks, func(i, j int) bool {
		if locks[i].name != locks[j].name {
			return locks[i].name < locks[j].name
		}
		return locks[i].idx < locks[j].idx
	})
	for _, lt := range locks {
		lt.sh.mu.Lock()
	}
	unlock := func() {
		for i := len(locks) - 1; i >= 0; i-- {
			locks[i].sh.mu.Unlock()
		}
	}

	reasons := make([]error, len(ops))
	failed := false
	staged := make([]attrs, len(ops)) // result row per op; nil for a delete or a check
	for i, p := range preps {
		op := &ops[i]
		cur := p.sh.get(*p.key)
		if op.Cond != nil && !evalAgainst(op.Cond, cur) {
			reasons[i] = condFailure(op.Table, *p.key, op.Cond)
			failed = true
			continue
		}
		switch {
		case op.Check:
			// Condition-only: the guard above already evaluated Cond and
			// nothing is written.
		case op.Put != nil:
			next := attrsOf(op.Put)
			if next.size() > p.t.maxSize {
				reasons[i] = fmt.Errorf("%w: table %s key %s", ErrItemTooLarge, op.Table, *p.key)
				failed = true
				continue
			}
			staged[i] = next
		case op.Delete:
			staged[i] = nil
		default:
			next, err := p.t.updated(cur, *p.key, op.Updates)
			if err != nil {
				reasons[i] = err
				failed = true
			} else if next.size() > p.t.maxSize {
				reasons[i] = fmt.Errorf("%w: table %s key %s", ErrItemTooLarge, op.Table, *p.key)
				failed = true
			}
			staged[i] = next
		}
	}

	if failed {
		unlock()
		s.metrics.CondFailures.Add(1)
		s.charge(OpTxWrite, len(ops), 0)
		return &TxCanceledError{Reasons: reasons}
	}
	for i, p := range preps {
		op := &ops[i]
		if op.Check {
			continue // condition already held; nothing to write
		}
		if op.Delete {
			p.sh.delete(*p.key)
			continue
		}
		p.sh.put(*p.key, staged[i])
		s.metrics.BytesWritten.Add(int64(staged[i].size()))
	}
	s.commitSleep(len(ops))
	unlock()
	// Notify after the shard locks are released: subscribers woken by these
	// events re-read through the normal API and must not deadlock on the
	// transaction's own latches.
	for i, p := range preps {
		if ops[i].Check {
			continue
		}
		s.notifyCommit(ops[i].Table, p.key.Hash)
	}
	s.charge(OpTxWrite, len(ops), 0)
	return nil
}
