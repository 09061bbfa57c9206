package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/beldi"
	"repro/internal/platform"
	"repro/internal/walstore"
)

// crashedWAL leaves a WAL directory behind a two-function workflow whose
// front died after its callee finished and before it did itself.
func crashedWAL(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	store, err := walstore.Open(dir, walstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.New(platform.Options{Faults: &platform.CrashOnce{Function: "front", Label: "body:done"}})
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: store, Platform: plat})
	d.Function("payment", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return in, e.Write("ledger", "charged", in)
	}, "ledger")
	d.Function("front", func(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
		return e.SyncInvoke("payment", beldi.Int(42))
	}, "orders")
	if _, err := d.Invoke("front", beldi.Null); err == nil {
		t.Fatal("front survived its crash")
	}
	plat.Drain()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestFromWALListsTheCrashedRoot(t *testing.T) {
	var out strings.Builder
	if err := fromWAL(crashedWAL(t), "", false, &out); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 2 || !strings.HasPrefix(lines[0], "1 roots") {
		t.Errorf("listing:\n%s\nwant one root", out.String())
	}
}

func TestFromWALAllMarksTheFrontPending(t *testing.T) {
	var out strings.Builder
	if err := fromWAL(crashedWAL(t), "", true, &out); err != nil {
		t.Fatal(err)
	}
	// The front's one attempt is pending; its callee's finished.
	for _, want := range []string{`(?m)^front \S+\n +attempt 1 \[.*\] PENDING$`, `(?m)^ +payment \S+\n +attempt 1 \[.*\] ok$`} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("trace:\n%s\nmatches no %s", out.String(), want)
		}
	}
}
