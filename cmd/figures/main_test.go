package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown figure id used to match no table entry, print nothing and exit
// 0 — indistinguishable from a figure that ran. It must name the valid ids
// and fail as a usage error.
func TestUnknownFigureListsValidIDsAndExits2(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-fig", "abaltion"}, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	msg := stderr.String()
	for _, want := range []string{`"abaltion"`, "13", "15b", "ablation", "pipeline", "all"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr %q does not mention %s", msg, want)
		}
	}
}

func TestKnownFigureRuns(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-fig", "costs"}, &stderr); code != 0 {
		t.Errorf("-fig costs: exit code %d, stderr %q", code, stderr.String())
	}
}
