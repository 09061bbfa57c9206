package beldi_test

import (
	"errors"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
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

// TestSealPendingIntentBlocksTheSeal: a write whose instance died after it
// leaves its intent pending, and its re-execution could not replay once the
// table is sealed. Seal refuses with ErrSealPending and leaves no marker; once
// the collectors finish the intent, the seal succeeds.
func TestSealPendingIntentBlocksTheSeal(t *testing.T) {
	store := dynamo.NewStore()
	plat := platform.New(platform.Options{IDs: &uuid.Seq{Prefix: "req"}})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat,
		Config: beldi.Config{ICMinAge: time.Nanosecond}})
	registerRef(d)
	crash := &platform.CrashOnce{Function: "ref", Label: "body:done"}
	plat.SetFaults(crash)
	if _, err := d.Invoke("ref", beldi.Str("w")); err == nil || !crash.Fired() {
		t.Fatalf("the writer must die at body:done: %v", err)
	}
	if err := d.Seal("ref", "state"); !errors.Is(err, beldi.ErrSealPending) {
		t.Fatalf("Seal with the writer pending: %v, want ErrSealPending", err)
	}
	if _, err := store.TableSchema("ref.sealed.state"); err == nil {
		t.Error("a refused seal left its marker table")
	}
	if err := d.RunAllCollectors(); err != nil {
		t.Fatal(err)
	}
	plat.Drain()
	if err := d.Seal("ref", "state"); err != nil {
		t.Fatalf("Seal after the collectors finished the writer: %v", err)
	}
	if _, err := d.Invoke("ref", beldi.Str("w")); !errors.Is(err, beldi.ErrTableSealed) {
		t.Errorf("a write after the seal: %v, want ErrTableSealed", err)
	}
}
