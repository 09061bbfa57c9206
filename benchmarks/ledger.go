package main

// counts is a flat sample of the layers' public counters, keyed
// "<layer>.<counter>". Every episode runs on a fresh deployment, so a delta
// over the timed window is after minus before, and the ledger is the sum of
// the deltas of the timed episodes. No layer gains a counter for this: the
// sample reads what Runtime.Stats(), Backend.Metrics(), Store.WAL(),
// Pipeline().Snapshot(), Client.Stats(), platform.Metrics()
// and the broker and mapper metrics already export.
type counts map[string]int64

func (c counts) sub(o counts) counts {
	d := make(counts, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// diff reports the keys on which c and o differ.
func (c counts) diff(o counts) []string {
	var keys []string
	for k, v := range c {
		if o[k] != v {
			keys = append(keys, k)
		}
	}
	for k := range o {
		if _, ok := c[k]; !ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// sample reads every layer's counters.
func sample(s *stack) counts {
	c := make(counts, 64)

	for _, fn := range s.d.Functions() {
		v := s.d.Runtime(fn).Stats().Snapshot()
		c["core.reads"] += v.Reads
		c["core.writes"] += v.Writes
		c["core.cond_writes"] += v.CondWrites
		c["core.sync_calls"] += v.SyncCalls
		c["core.async_calls"] += v.AsyncCalls + v.PromiseCalls
		c["core.awaits"] += v.Awaits
		c["core.txn_begun"] += v.TxnBegun
		c["core.txn_committed"] += v.TxnCommitted
		c["core.txn_aborted"] += v.TxnAborted
		c["core.replays"] += v.Replays
		c["core.gc_rows_deleted"] += v.GCRowsDeleted + v.GCLogRows + v.GCIntents
	}

	// The store core sees: the paper's billed-request count.
	c["store.ops"] = s.d.Runtime(s.d.Functions()[0]).Store().Metrics().Snapshot().TotalOps()

	// The engine that holds the rows (the WAL's memtable on WAL substrates).
	m := s.bottom().Metrics().Snapshot()
	c["dynamo.items_scanned"] = m.ItemsScanned
	c["dynamo.cond_failures"] = m.CondFailures
	c["dynamo.bytes_read"] = m.BytesRead
	c["dynamo.bytes_written"] = m.BytesWritten

	p := s.plat.Metrics().Snapshot()
	c["platform.invocations"] = p.Invocations
	c["platform.cold_starts"] = p.ColdStarts

	if pipe := s.d.Pipeline(); pipe != nil {
		v := pipe.Snapshot()
		c["pipeline.appended"] = v.Appended
		c["pipeline.flushes"] = v.Flushes
		c["pipeline.flushed_rows"] = v.FlushedRows
		c["pipeline.fences"] = v.Fences
		c["pipeline.fence_waits"] = v.FenceWaits
	}
	if s.client != nil {
		v := s.client.Stats().Snapshot()
		c["remote.rpcs"] = v.RPCs
		c["remote.retries"] = v.Retries + v.Reconnects + v.Timeouts
		c["remote.wire_bytes"] = v.BytesRead + v.BytesWritten
	}
	if s.wal != nil {
		v := s.wal.WAL().Snapshot()
		c["walstore.records"] = v.Records
		c["walstore.wal_bytes"] = v.BytesAppended
		c["walstore.fsyncs"] = v.Fsyncs
		c["walstore.sync_batches"] = v.SyncBatches
		c["walstore.batched_records"] = v.BatchedRecords
	}
	if s.da != nil {
		q := s.da.Broker().Metrics().Snapshot()
		c["queue.enqueued"] = q.Enqueued
		c["queue.received"] = q.Received
		c["queue.empty_receives"] = q.EmptyReceives
		for _, fn := range s.d.Functions() {
			if mp := s.da.Mapper(fn); mp != nil {
				v := mp.Metrics().Snapshot()
				c["mapper.batches"] += v.Batches
				c["mapper.wakeups"] += v.Wakeups
			}
		}
	}
	return c
}

// ratio is a/b, 0 when the denominator is 0 (a layer that is not in the
// path reports 0 for its ratios, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
