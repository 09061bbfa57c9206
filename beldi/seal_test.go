package beldi_test

import (
	"errors"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/storage/storagetest"
)

// registerRef registers an SSF over one table: "w" writes the key "k", any
// other input reads it.
func registerRef(d *beldi.Deployment) {
	d.Function("ref", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		if in.Str() == "w" {
			return beldi.Null, e.Write("state", "k", beldi.Str("v1"))
		}
		return e.Read("state", "k")
	}, "state")
}

// TestClusterWorkerJoiningAfterTheSealRefusesWrites: the seal is in the
// shared store, so a worker that registers the table after it adopts it.
func TestClusterWorkerJoiningAfterTheSealRefusesWrites(t *testing.T) {
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store: storagetest.Open(t), Partitions: 4, Config: beldi.Config{T: 50 * time.Millisecond},
	})
	w1, err := c.JoinCluster("w1", registerRef)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Stop()
	if _, err := w1.Invoke("ref", beldi.Str("w")); err != nil {
		t.Fatal(err)
	}
	if err := w1.Deployment().Seal("ref", "state"); err != nil {
		t.Fatal(err)
	}
	if err := w1.Deployment().Seal("nope", "state"); !errors.Is(err, beldi.ErrUnknownFunction) {
		t.Errorf("sealing an unknown function's table: %v, want ErrUnknownFunction", err)
	}
	w2, err := c.JoinCluster("w2", registerRef)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Stop()
	for _, w := range []*beldi.ClusterWorker{w1, w2} {
		if _, err := w.Invoke("ref", beldi.Str("w")); !errors.Is(err, beldi.ErrTableSealed) {
			t.Errorf("write through a worker after the seal: %v, want ErrTableSealed", err)
		}
		if v, err := w.Invoke("ref", beldi.Str("r")); err != nil || v.Str() != "v1" {
			t.Errorf("read through a worker after the seal: %v, %v", v, err)
		}
	}
}
