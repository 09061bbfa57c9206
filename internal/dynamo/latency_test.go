package dynamo

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestZeroLatency(t *testing.T) {
	var m ZeroLatency
	if d := m.OpLatency(OpGet, 10, 1000); d != 0 {
		t.Errorf("zero latency = %v", d)
	}
}

func TestCloudLatencyScalesAndCharges(t *testing.T) {
	m := NewCloudLatency(1.0, 42)
	m.Jitter = 0
	m.TailP = 0
	get := m.OpLatency(OpGet, 1, 0)
	if get != m.Base[OpGet]+m.PerItem {
		t.Errorf("get = %v", get)
	}
	// Per-item and per-KB surcharges.
	scan1 := m.OpLatency(OpScan, 1, 0)
	scan20 := m.OpLatency(OpScan, 20, 4096)
	if scan20 <= scan1 {
		t.Errorf("scan fan-out not charged: %v vs %v", scan1, scan20)
	}
	// Scale compresses proportionally.
	half := NewCloudLatency(0.5, 42)
	half.Jitter = 0
	half.TailP = 0
	if got := half.OpLatency(OpGet, 1, 0); got != get/2 {
		t.Errorf("scaled get = %v, want %v", got, get/2)
	}
}

func TestCloudLatencyJitterBounded(t *testing.T) {
	m := NewCloudLatency(1.0, 7)
	m.TailP = 0
	base := m.Base[OpGet] + m.PerItem
	for i := 0; i < 500; i++ {
		d := m.OpLatency(OpGet, 1, 0)
		lo := time.Duration(float64(base) * (1 - m.Jitter - 0.001))
		hi := time.Duration(float64(base) * (1 + m.Jitter + 0.001))
		if d < lo || d > hi {
			t.Fatalf("sample %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestCloudLatencyTailEvents(t *testing.T) {
	m := NewCloudLatency(1.0, 9)
	m.Jitter = 0
	m.TailP = 0.5
	m.TailMult = 10
	base := m.Base[OpGet] + m.PerItem
	tails := 0
	for i := 0; i < 400; i++ {
		if m.OpLatency(OpGet, 1, 0) > 2*base {
			tails++
		}
	}
	if tails < 100 || tails > 300 {
		t.Errorf("tail events = %d/400 at P=0.5", tails)
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpKind(0); k < opKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("op %d has no name", k)
		}
	}
	if OpKind(200).String() != "unknown" {
		t.Error("out-of-range op named")
	}
}

func TestGetProjTrafficAccounting(t *testing.T) {
	// The §7.3 network claim rests on projections reducing charged bytes.
	s := NewStore()
	s.MustCreateTable(Schema{Name: "t", HashKey: "K"})
	big := Item{"K": S("a"), "V": S(string(make([]byte, 4096))), "Tag": S("x")}
	if err := s.Put("t", big, nil); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics().Snapshot()
	it, ok, err := s.GetProj("t", HK(S("a")), []Path{A("Tag")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if _, has := it["V"]; has {
		t.Error("projection leaked V")
	}
	full := s.Metrics().Snapshot()
	projBytes := full.Sub(before).BytesRead
	s.Get("t", HK(S("a")))
	fullBytes := s.Metrics().Snapshot().Sub(full).BytesRead
	if projBytes*10 > fullBytes {
		t.Errorf("projection read %d bytes, full read %d — projection not cheap", projBytes, fullBytes)
	}
}

func TestCommitCostShapeIsPinned(t *testing.T) {
	c := CommitCost{Flush: 10 * time.Millisecond, PerOp: time.Millisecond}
	// The shape commit pipelining amortizes: Flush once per batch plus
	// PerOp per operation. Pinned so the pipeline committer's
	// ModelCommitLatency accounting and the in-latch commitSleep charge can
	// never drift apart.
	for _, tc := range []struct {
		ops  int
		want time.Duration
	}{{1, 11 * time.Millisecond}, {8, 18 * time.Millisecond}, {128, 138 * time.Millisecond}} {
		if got := c.CommitLatency(tc.ops); got != tc.want {
			t.Errorf("CommitLatency(%d) = %v, want %v", tc.ops, got, tc.want)
		}
	}
}

func TestModelCommitLatencyExposesTheModel(t *testing.T) {
	s := NewStore(WithLatency(CommitCost{Flush: 4 * time.Millisecond, PerOp: time.Millisecond}))
	if got, want := s.ModelCommitLatency(6), 10*time.Millisecond; got != want {
		t.Errorf("ModelCommitLatency(6) = %v, want %v", got, want)
	}
	// Models without a commit cost (the default) report zero.
	if got := NewStore().ModelCommitLatency(6); got != 0 {
		t.Errorf("ZeroLatency ModelCommitLatency = %v, want 0", got)
	}
}

func TestTransactWriteChargesCommitCostPerBatch(t *testing.T) {
	// TransactWrite charges CommitLatency once for the whole batch — not
	// once per op — which is exactly the amortization ModelCommitLatency
	// lets the pipeline committer account for. On a virtual clock the
	// charge is the clock's whole advance.
	const flush = 30 * time.Millisecond
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := NewStore(WithLatency(CommitCost{Flush: flush}), WithClock(clk))
	s.MustCreateTable(Schema{Name: "kv", HashKey: "K"})
	ops := make([]TxOp, 8)
	for i := range ops {
		ops[i] = TxOp{Table: "kv", Put: Item{"K": S(fmt.Sprintf("k%d", i)), "V": NInt(int64(i))}}
	}
	start := clk.Now()
	if err := s.TransactWrite(ops); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(start); got != flush {
		t.Errorf("an 8-op TransactWrite advanced the clock %v, want one flush (%v)", got, flush)
	}
}

func TestPlainOpsChargeTheClock(t *testing.T) {
	// The plain path: a Get pays its round trip, a Put its round trip plus
	// a one-op commit, each as one exact advance of the store's clock.
	cloud := NewCloudLatency(1, 1)
	cloud.Jitter, cloud.TailP = 0, 0
	cost := CommitCost{Inner: cloud, Flush: 2 * time.Millisecond, PerOp: time.Millisecond}
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := NewStore(WithLatency(cost), WithClock(clk))
	s.MustCreateTable(Schema{Name: "kv", HashKey: "K"})
	for _, tc := range []struct {
		name string
		op   func() error
		want time.Duration
	}{
		{"get", func() error { _, _, err := s.Get("kv", HK(S("a"))); return err }, cloud.Base[OpGet] + cloud.PerItem},
		{"put", func() error { return s.Put("kv", Item{"K": S("a")}, nil) }, cloud.Base[OpPut] + cloud.PerItem + 3*time.Millisecond},
	} {
		start := clk.Now()
		if err := tc.op(); err != nil {
			t.Fatal(err)
		}
		if got := clk.Now().Sub(start); got != tc.want {
			t.Errorf("%s advanced the clock %v, want %v", tc.name, got, tc.want)
		}
	}
}
