package bench

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestCountsGolden pins what one workflow of each benchmark workload costs,
// table by table, on both stacks, with the collection counted apart
// (testdata/costs.golden), and that BENCH_counts.json at the repository root
// holds the same rows as `figures -fig counts -json` writes them. A diff is
// a count change: say in CHANGES.md why each moved line moved, and
// regenerate both only for a deliberate one:
// go test ./internal/bench -run TestCountsGolden -update.
func TestCountsGolden(t *testing.T) {
	rows, err := RunAll(CountSets(1), RunCount)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatCounts(rows)
	js, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	js = append(js, '\n')
	const golden, trajectory = "testdata/costs.golden", "../../BENCH_counts.json"
	if *update {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectory, js, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(text, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %q\nwant %q", golden, i+1, at(got, i), at(wantLines, i))
		}
	}
	committed, err := os.ReadFile(trajectory)
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(js) {
		t.Fatalf("%s does not hold the golden's rows; regenerate both with -update", trajectory)
	}
}
