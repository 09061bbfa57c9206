package dynamo

import "sync/atomic"

// Metrics counts store traffic. All fields are updated atomically and may be
// read while the store is live. BytesRead counts projected response bytes
// (what §7.3 of the paper calls network overhead "measured at the network
// layer"); BytesWritten counts request payload bytes.
type Metrics struct {
	Ops          [opKinds]atomic.Int64
	CondFailures atomic.Int64
	ItemsScanned atomic.Int64
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
	// GroupCommits counts committed batches on the group-commit path;
	// GroupCommitOps counts the writes they carried. Their ratio is the mean
	// batch size — the amortization factor the shard figure reports.
	GroupCommits   atomic.Int64
	GroupCommitOps atomic.Int64
	// WatchSubs is the number of live commit-stream subscriptions;
	// WatchNotifies counts events delivered to subscribers and WatchDrops
	// counts events coalesced into a full subscription buffer (the
	// subscriber already has a pending wakeup, so nothing is lost).
	WatchSubs     atomic.Int64
	WatchNotifies atomic.Int64
	WatchDrops    atomic.Int64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Ops            map[string]int64
	CondFailures   int64
	ItemsScanned   int64
	BytesRead      int64
	BytesWritten   int64
	GroupCommits   int64
	GroupCommitOps int64
	WatchSubs      int64
	WatchNotifies  int64
	WatchDrops     int64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Ops: make(map[string]int64, int(opKinds))}
	for k := OpKind(0); k < opKinds; k++ {
		s.Ops[k.String()] = m.Ops[k].Load()
	}
	s.CondFailures = m.CondFailures.Load()
	s.ItemsScanned = m.ItemsScanned.Load()
	s.BytesRead = m.BytesRead.Load()
	s.BytesWritten = m.BytesWritten.Load()
	s.GroupCommits = m.GroupCommits.Load()
	s.GroupCommitOps = m.GroupCommitOps.Load()
	s.WatchSubs = m.WatchSubs.Load()
	s.WatchNotifies = m.WatchNotifies.Load()
	s.WatchDrops = m.WatchDrops.Load()
	return s
}

// Sub returns s - o, counter-wise, for measuring an interval.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d := Snapshot{Ops: make(map[string]int64, len(s.Ops))}
	for k, v := range s.Ops {
		d.Ops[k] = v - o.Ops[k]
	}
	d.CondFailures = s.CondFailures - o.CondFailures
	d.ItemsScanned = s.ItemsScanned - o.ItemsScanned
	d.BytesRead = s.BytesRead - o.BytesRead
	d.BytesWritten = s.BytesWritten - o.BytesWritten
	d.GroupCommits = s.GroupCommits - o.GroupCommits
	d.GroupCommitOps = s.GroupCommitOps - o.GroupCommitOps
	d.WatchSubs = s.WatchSubs - o.WatchSubs
	d.WatchNotifies = s.WatchNotifies - o.WatchNotifies
	d.WatchDrops = s.WatchDrops - o.WatchDrops
	return d
}

// TotalOps sums all op counters.
func (s Snapshot) TotalOps() int64 {
	var n int64
	for _, v := range s.Ops {
		n += v
	}
	return n
}
