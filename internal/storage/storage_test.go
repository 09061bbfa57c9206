package storage_test

import (
	"testing"

	"repro/internal/dynamo"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/walstore"
)

// Both concrete stores satisfy the seam, and AsDynamo unwraps each down to
// the in-memory store carrying the shard/batching knobs.
func TestAsDynamo(t *testing.T) {
	mem := dynamo.NewStore()
	if got, ok := storage.AsDynamo(mem); !ok || got != mem {
		t.Errorf("AsDynamo(mem) = %v, %v", got, ok)
	}
	wal, err := walstore.Open(t.TempDir(), walstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if got, ok := storage.AsDynamo(wal); !ok || got != wal.DynamoStore() {
		t.Errorf("AsDynamo(wal) = %v, %v", got, ok)
	}
	var b storage.Backend = wal
	if _, ok := b.(*dynamo.Store); ok {
		t.Error("walstore must not be a *dynamo.Store")
	}
}

// An overlay forwards DynamoStore() to its base; over a base that has no
// in-memory store (a remote client) that is nil, and AsDynamo must say so
// instead of handing out a nil store with ok == true.
func TestAsDynamoOverlayOverNonDynamoBase(t *testing.T) {
	type opaque struct{ storage.Backend } // hides the base's concrete type
	over := pipeline.MustNew(opaque{dynamo.NewStore()}, pipeline.Options{ManualFlush: true})
	defer over.Close()
	if got, ok := storage.AsDynamo(over); ok || got != nil {
		t.Errorf("AsDynamo(overlay over opaque base) = %v, %v; want nil, false", got, ok)
	}
}

func TestMustCreateTable(t *testing.T) {
	mem := dynamo.NewStore()
	storage.MustCreateTable(mem, storage.Schema{Name: "t", HashKey: "K"})
	defer func() {
		if recover() == nil {
			t.Error("duplicate MustCreateTable did not panic")
		}
	}()
	storage.MustCreateTable(mem, storage.Schema{Name: "t", HashKey: "K"})
}

// Each implementer of the data plane as one Do keeps the capabilities it
// had while it spelled the typed calls out: the same Fencer, Watcher and
// AsDynamo answers on the same value.
func TestImplementersKeepTheirCapabilities(t *testing.T) {
	mem := func() storage.Backend {
		b := dynamo.NewStore()
		storage.MustCreateTable(b, storage.Schema{Name: "t", HashKey: "K"})
		return b
	}
	over := pipeline.MustNew(mem(), pipeline.Options{ManualFlush: true})
	defer over.Close()
	wal, err := walstore.Open(t.TempDir(), walstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	storage.MustCreateTable(wal, storage.Schema{Name: "t", HashKey: "K"})
	client := storagetest.OpenRemote(t)
	storage.MustCreateTable(client, storage.Schema{Name: "t", HashKey: "K"})
	s := sim.New(sim.Options{Seed: 1})
	for _, c := range []struct {
		name                 string
		b                    storage.Backend
		fencer, watcher, dyn bool
	}{
		{"pipeline", over, true, true, true},
		{"walstore", wal, false, true, true},
		{"remote", client, false, true, false},
		{"sim", sim.WrapBackend(mem(), s, "p", &sim.StoreFaults{}), true, false, false},
		{"sim+wake", sim.WrapBackend(mem(), s, "p", &sim.StoreFaults{Wake: &sim.WakeFaults{}}), true, true, false},
		{"counting", storagetest.NewCounting(mem()), false, true, false},
	} {
		if _, ok := c.b.(storage.Doer); !ok {
			t.Errorf("%s: not a storage.Doer", c.name)
		}
		if _, ok := c.b.(storage.Fencer); ok != c.fencer {
			t.Errorf("%s: Fencer = %v, want %v", c.name, ok, c.fencer)
		}
		if err := storage.Fence(c.b); err != nil {
			t.Errorf("%s: Fence: %v", c.name, err)
		}
		sub, ok := storage.Watch(c.b, "t", dynamo.Null)
		if ok != c.watcher {
			t.Errorf("%s: Watch = %v, want %v", c.name, ok, c.watcher)
		}
		if sub != nil {
			sub.Close()
		}
		if _, ok := storage.AsDynamo(c.b); ok != c.dyn {
			t.Errorf("%s: AsDynamo = %v, want %v", c.name, ok, c.dyn)
		}
	}
}

// opaque hides a Doer's concrete type, so Typed cannot unwrap it.
type opaque struct{ storage.Doer }

// The two adapters in series — typed calls over one Do over typed calls —
// pass the conformance suite: each turns every call into the other form
// and back without losing a field. (The watch sections skip: the adapters
// carry no capability.)
func TestConformanceAdapters(t *testing.T) {
	storagetest.Run(t, func(tb testing.TB) storage.Backend {
		return storage.Typed(opaque{storage.DoerOf(dynamo.NewStore())})
	})
}

func TestConformanceCounting(t *testing.T) {
	storagetest.Run(t, func(tb testing.TB) storage.Backend {
		return storagetest.NewCounting(dynamo.NewStore())
	})
}

// Each adapter unwraps the other, so stacking them never builds a chain, and
// a value that already is both forms is its own adapter either way.
func TestAdaptersUnwrapEachOther(t *testing.T) {
	b := dynamo.NewStore()
	if got := storage.Typed(storage.DoerOf(b)); got != storage.Backend(b) {
		t.Errorf("Typed(DoerOf(b)) = %T, want b", got)
	}
	d := opaque{storage.DoerOf(b)}
	if got := storage.DoerOf(storage.Typed(d)); got != storage.Doer(d) {
		t.Errorf("DoerOf(Typed(d)) = %T, want d", got)
	}
	c := storagetest.NewCounting(b)
	if storage.Typed(c) != storage.Backend(c) || storage.DoerOf(c) != storage.Doer(c) {
		t.Error("an implementer of both forms was wrapped")
	}
}

// An op of no kind is an error, not a panic or a silent no-op.
func TestUnknownOpKind(t *testing.T) {
	if _, err := storage.DoerOf(dynamo.NewStore()).Do(storage.Op{Kind: 99}); err == nil {
		t.Error("Do of kind 99 succeeded")
	}
}
