package beldi_test

import (
	"context"
	"errors"
	"testing"

	"repro/beldi"
	"repro/internal/core"
	"repro/internal/platform"
)

// TestRetryRunsAFailedWorkflowOnce: on whichever side of its first effect a
// workflow was killed — before its intent row (it left nothing), after it
// (the row is pending), after its body or after its done mark (the reply
// alone was lost) — the client's Retry with the failed call's instance id
// lands the workflow's effect exactly once and returns its result, a second
// Retry returns the recorded result, and no collector finds anything left.
func TestRetryRunsAFailedWorkflowOnce(t *testing.T) {
	for _, label := range []string{"intent:pre", "intent:logged", "body:done", "done:marked"} {
		t.Run(label, func(t *testing.T) {
			d, plat := newDeployment(t, beldi.ModeBeldi)
			d.Function("counter", counter, "state")
			crash := &platform.CrashOnce{Function: "counter", Label: label}
			plat.SetFaults(crash)
			_, err := d.Invoke("counter", beldi.Null)
			if err == nil || !crash.Fired() {
				t.Fatalf("crash at %s did not fire (err %v)", label, err)
			}
			var failed *beldi.CallError
			if !errors.As(err, &failed) || failed.Instance == "" || failed.Function != "counter" {
				t.Fatalf("Invoke failed with %v (%T), want a *CallError naming the instance", err, err)
			}
			if !errors.Is(err, platform.ErrCrashed) {
				t.Errorf("the CallError hides its cause: %v", err)
			}
			for i := 0; i < 2; i++ {
				out, err := d.Retry(context.Background(), failed)
				if err != nil || out.Int() != 1 {
					t.Fatalf("retry %d = %v, %v; want 1", i+1, out, err)
				}
			}
			if err := d.RunAllCollectors(); err != nil {
				t.Fatal(err)
			}
			if n, err := core.PendingIntents(d.Runtime("counter").Store(), "counter"); err != nil || n != 0 {
				t.Errorf("%d intents pending after the retries (%v)", n, err)
			}
			if v, err := beldi.PeekState(d.Runtime("counter"), "state", "hits"); err != nil || v.Int() != 1 {
				t.Errorf("hits = %v %v, want exactly 1", v, err)
			}
		})
	}
}

// TestRetryOfAnUnknownFunction: a CallError naming a function the
// deployment does not have is refused like an Invoke of it.
func TestRetryOfAnUnknownFunction(t *testing.T) {
	d, _ := newDeployment(t, beldi.ModeBeldi)
	_, err := d.Retry(context.Background(), &beldi.CallError{Function: "nope", Instance: "req-1"})
	if !errors.Is(err, beldi.ErrUnknownFunction) {
		t.Errorf("Retry of an unknown function: %v", err)
	}
}
