package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/platform"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

// TestIntegrationTimerDrivenCollectors: a deployment's collection loop
// drives recovery without manual pumping — a workflow whose first attempt
// failed is finished by the loop's own intent-collection pass.
func TestIntegrationTimerDrivenCollectors(t *testing.T) {
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    storagetest.Open(t),
		Platform: platform.New(platform.Options{ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}}),
		Config:   beldi.Config{RowCap: 4, T: 10 * time.Millisecond, ICMinAge: 5 * time.Millisecond},
	})
	var failOnce sync.Once
	shouldFail := func() (failed bool) {
		failOnce.Do(func() { failed = true })
		return
	}
	rt := d.Function("flaky", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		if shouldFail() {
			return beldi.Null, fmt.Errorf("transient")
		}
		v, err := e.Read("counter", "k")
		if err != nil {
			return beldi.Null, err
		}
		return beldi.Null, e.Write("counter", "k", beldi.Int(v.Int()+1))
	}, "counter")
	d.StartCollectors()
	defer d.Stop()
	d.Invoke("flaky", beldi.Null) //nolint:errcheck // first attempt fails
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, _ := beldi.PeekState(rt, "counter", "k"); got.Int() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timer-driven recovery never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
