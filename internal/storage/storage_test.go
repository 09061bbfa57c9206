package storage_test

import (
	"testing"

	"repro/internal/dynamo"
	"repro/internal/pipeline"
	"repro/internal/storage"
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
