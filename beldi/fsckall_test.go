package beldi_test

import (
	"strings"
	"testing"

	"repro/beldi"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// TestFsckAllNamesTheSortedFirstDamagedFunction damages two functions the
// same way and checks that FsckAll reports the one that sorts first, on
// every run: it walks functions in sorted order, not in map order.
func TestFsckAllNamesTheSortedFirstDamagedFunction(t *testing.T) {
	store := dynamo.NewStore()
	plat := platform.New(platform.Options{IDs: &uuid.Seq{Prefix: "req"}})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat})
	counter := func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		v, err := e.Read("state", "k")
		if err != nil {
			return beldi.Null, err
		}
		return beldi.Null, e.Write("state", "k", beldi.Int(v.Int()+1))
	}
	for _, fn := range []string{"delta", "beta", "gamma", "alpha"} {
		d.Function(fn, counter, "state")
		if _, err := d.Invoke(fn, beldi.Null); err != nil {
			t.Fatal(err)
		}
	}
	// Drop beta's and delta's intents and keep their read logs: a leak.
	for _, fn := range []string{"delta", "beta"} {
		rows, err := store.Scan(fn+".intent", dynamo.QueryOpts{})
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s intents: %v (%v)", fn, rows, err)
		}
		if err := store.Delete(fn+".intent", dynamo.HK(rows[0]["InstanceId"]), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := d.FsckAll(); err == nil || !strings.HasPrefix(err.Error(), "core: fsck beta: ") {
			t.Fatalf("run %d: FsckAll = %v, want beta's problems", i, err)
		}
	}
}
