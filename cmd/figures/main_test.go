package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
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

// A value no figure can run with used to be replaced silently — -minutes 0
// ran 30 simulated minutes and printed none, -ops 0 ran 60 — or, for a bad
// -rates, exited the process from inside run. Each is a usage error now,
// reported on run's own stderr before any figure starts.
func TestBadFlagValuesExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-duration", "0"},
		{"-duration", "-1s"},
		{"-minutes", "0"},
		{"-minute", "0s"},
		{"-ops", "0"},
		{"-scale", "-0.1"},
		{"-rates", "100,x"},
		{"-rates", ""},
		{"-rates", "100,0"},
		{"-rates", "inf"},
	} {
		var stderr bytes.Buffer
		if code := run(append([]string{"-fig", "costs"}, args...), &stderr); code != 2 {
			t.Errorf("%q: exit code %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), args[0]) {
			t.Errorf("%q: stderr %q does not name the flag", args, stderr.String())
		}
	}
}

func TestKnownFigureRuns(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-fig", "costs"}, &stderr); code != 0 {
		t.Errorf("-fig costs: exit code %d, stderr %q", code, stderr.String())
	}
}

// TestFigureIDsAgree: the ids the figure table accepts (as the usage error
// lists them), the ids in the package comment's usage block, and the -fig
// lines of the CI workflow name the same figures — a figure added to one and
// not the others is either undocumented or never run.
func TestFigureIDsAgree(t *testing.T) {
	var stderr bytes.Buffer
	run([]string{"-fig", "?"}, &stderr)
	_, list, ok := strings.Cut(stderr.String(), "valid ids: ")
	if !ok {
		t.Fatalf("usage error lists no ids: %q", stderr.String())
	}
	table := strings.Split(strings.TrimSpace(list), ", ")

	ids := func(file, pattern string) []string {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range regexp.MustCompile(pattern).FindAllSubmatch(src, -1) {
			if id := string(m[1]); !slices.Contains(out, id) {
				out = append(out, id)
			}
		}
		return out
	}
	usage := ids("main.go", `(?m)^//\tfigures -fig (\S+)`)
	slices.Sort(table)
	slices.Sort(usage)
	if !slices.Equal(usage, table) {
		t.Errorf("package comment documents -fig %q, the figure table accepts %q", usage, table)
	}
	ci := ids("../../.github/workflows/ci.yml", `go run \./cmd/figures -fig (\S+)`)
	if len(ci) == 0 {
		t.Error("the CI workflow runs no figure")
	}
	for _, id := range ci {
		if !slices.Contains(table, id) {
			t.Errorf("the CI workflow runs -fig %s, which the figure table does not accept", id)
		}
	}
}
