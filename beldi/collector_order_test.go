package beldi_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/apps/travel"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/uuid"
)

// What the collectors leave behind must not depend on the order the
// functions are collected in. PR 14 saw the travel benchmark strand one
// shadow row per reservation "under some orders"; the cause was not the
// order but a second clock reading inside one GC pass (a settle claimant
// stamped by that very pass judged settled, its registries deleted, the
// shadow chain left with no marker to die by). T far below a pass's own
// duration makes that window certain, so both directions ran into it.
func TestCollectorOrderDoesNotDecideWhatSurvives(t *testing.T) {
	const T = time.Microsecond
	collect := func(reverse bool) (total int, stranded []string) {
		store := dynamo.NewStore()
		d := beldi.NewDeployment(beldi.DeploymentOptions{
			Store:    store,
			Platform: platform.New(platform.Options{IDs: &uuid.Seq{Prefix: "req"}}),
			IDs:      &uuid.Seq{Prefix: "id"},
			Config:   beldi.Config{RowCap: 16, T: T},
		})
		app := travel.Build(d)
		if err := app.Seed(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			out, err := d.Invoke(app.Entry(), beldi.Map(map[string]beldi.Value{
				"op":     beldi.Str("reserve"),
				"hotel":  beldi.Str("hotel-001"),
				"flight": beldi.Str("flight-002"),
			}))
			if err != nil || out.Str() != "booked" {
				t.Fatalf("reserve %d: %v %v", i, out, err)
			}
		}
		fns := d.Functions()
		if reverse {
			slices.Reverse(fns)
		}
		// Pass one stamps every finished intent, pass two recycles them.
		for pass := 0; pass < 2; pass++ {
			time.Sleep(time.Millisecond)
			for _, fn := range fns {
				if _, err := d.Runtime(fn).RunIntentCollector(); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Runtime(fn).RunGarbageCollector(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, name := range store.TableNames() {
			bytes, _ := store.TableBytes(name)
			total += bytes
			rows, _ := store.TableItemCount(name)
			if rows > 0 && (strings.HasSuffix(name, ".shadow") || strings.Contains(name, ".tx")) {
				stranded = append(stranded, name)
			}
		}
		return total, stranded
	}
	sorted, strandedS := collect(false)
	reversed, strandedR := collect(true)
	if sorted != reversed {
		t.Errorf("Σ TableBytes after two passes: %d collecting in sorted order, %d in reverse", sorted, reversed)
	}
	if len(strandedS)+len(strandedR) > 0 {
		t.Errorf("transaction state survives its transaction: sorted %v, reverse %v", strandedS, strandedR)
	}
}
