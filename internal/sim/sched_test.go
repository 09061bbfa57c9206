package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// runProgram executes a fixed four-task interleaving program and returns
// the observed execution order and the trace hash.
func runProgram(t *testing.T, seed int64, policy string) (string, uint64) {
	t.Helper()
	s := New(Options{Seed: seed, Policy: policy})
	var log []string
	for i := 0; i < 4; i++ {
		i := i
		s.Go(TaskOpts{Name: fmt.Sprintf("t%d", i)}, func() {
			for j := 0; j < 3; j++ {
				log = append(log, fmt.Sprintf("%d.%d", i, j))
				s.Note(log[len(log)-1])
				if j == 1 {
					s.Sleep(time.Duration(i+1) * time.Millisecond)
				} else {
					s.Yield()
				}
			}
		})
	}
	root := s.Go(TaskOpts{Name: "root"}, func() { s.Sleep(time.Second) })
	if err := s.Run(root); err != nil {
		t.Fatalf("run: %v", err)
	}
	s.Shutdown()
	return strings.Join(log, " "), s.TraceHash()
}

func TestSchedulerSameSeedSameTrace(t *testing.T) {
	for _, policy := range Policies() {
		order1, hash1 := runProgram(t, 42, policy)
		order2, hash2 := runProgram(t, 42, policy)
		if order1 != order2 {
			t.Errorf("%s: same seed, different order:\n  %s\n  %s", policy, order1, order2)
		}
		if hash1 != hash2 {
			t.Errorf("%s: same seed, different trace hash: %016x vs %016x", policy, hash1, hash2)
		}
	}
}

func TestSchedulerDifferentSeedDifferentTrace(t *testing.T) {
	// Different seeds must explore different interleavings; equal hashes
	// for every probed pair would mean the seed is ignored.
	_, h1 := runProgram(t, 1, "random")
	_, h2 := runProgram(t, 2, "random")
	_, h3 := runProgram(t, 3, "random")
	if h1 == h2 && h2 == h3 {
		t.Errorf("seeds 1..3 all produced trace %016x; scheduling ignores the seed", h1)
	}
}

func TestSchedulerVirtualTime(t *testing.T) {
	s := New(Options{Seed: 7})
	start := s.Now()
	var slept time.Duration
	root := s.Go(TaskOpts{Name: "root"}, func() {
		s.Sleep(5 * time.Second)
		slept = s.Now().Sub(start)
	})
	if err := s.Run(root); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if slept != 5*time.Second {
		t.Errorf("virtual sleep advanced %v, want exactly 5s", slept)
	}
}

func TestSchedulerKilledTaskNeverRuns(t *testing.T) {
	s := New(Options{Seed: 7})
	ran := false
	root := s.Go(TaskOpts{Name: "root"}, func() {
		s.Go(TaskOpts{Name: "victim", Proc: "p"}, func() {
			s.Sleep(time.Minute)
			ran = true
		})
		s.Sleep(time.Millisecond)
		s.KillProc("p")
		s.Sleep(2 * time.Minute) // past the victim's wake-up
	})
	if err := s.Run(root); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if ran {
		t.Error("killed task resumed past its kill")
	}
}

func TestSchedulerPauseFreezesAndResumeReleases(t *testing.T) {
	s := New(Options{Seed: 7})
	var events []string
	root := s.Go(TaskOpts{Name: "root"}, func() {
		s.Go(TaskOpts{Name: "worker", Proc: "p"}, func() {
			for i := 0; i < 2; i++ {
				s.Sleep(time.Millisecond)
				events = append(events, fmt.Sprintf("work@%dms", s.Now().Sub(epoch)/time.Millisecond))
			}
		})
		s.Sleep(500 * time.Microsecond)
		s.PauseProc("p")
		s.Sleep(10 * time.Millisecond)
		events = append(events, "resume")
		s.ResumeProc("p")
		s.Sleep(10 * time.Millisecond)
	})
	if err := s.Run(root); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	want := "resume work@10ms work@11ms"
	if got := strings.Join(events, " "); got != want {
		t.Errorf("pause/resume schedule: got %q, want %q", got, want)
	}
}

func TestSchedulerAwait(t *testing.T) {
	s := New(Options{Seed: 7})
	var order []string
	root := s.Go(TaskOpts{Name: "root"}, func() {
		var children []*Task
		for i := 0; i < 3; i++ {
			i := i
			children = append(children, s.Go(TaskOpts{Name: fmt.Sprintf("c%d", i)}, func() {
				s.Sleep(time.Duration(3-i) * time.Millisecond)
				order = append(order, fmt.Sprintf("c%d", i))
			}))
		}
		s.Await(children...)
		order = append(order, "root")
	})
	if err := s.Run(root); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if got := strings.Join(order, " "); got != "c2 c1 c0 root" {
		t.Errorf("await order: got %q, want children (by deadline) then root", got)
	}
}

func TestSchedulerDeadlockDetected(t *testing.T) {
	s := New(Options{Seed: 7})
	root := s.Go(TaskOpts{Name: "root"}, func() {
		child := s.Go(TaskOpts{Name: "frozen", Proc: "p"}, func() { s.Sleep(time.Hour) })
		s.Sleep(time.Millisecond)
		s.PauseProc("p")
		s.Await(child) // child can never finish: deadlock
	})
	err := s.Run(root)
	s.Shutdown()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected a deadlock error, got %v", err)
	}
}

func TestSchedulerTaskPanicSurfaces(t *testing.T) {
	s := New(Options{Seed: 7})
	root := s.Go(TaskOpts{Name: "root"}, func() {
		s.Go(TaskOpts{Name: "bomb"}, func() { panic("boom") })
		s.Sleep(time.Millisecond)
	})
	err := s.Run(root)
	s.Shutdown()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("expected the task panic to surface, got %v", err)
	}
}

func TestClockSkewAndAfter(t *testing.T) {
	s := New(Options{Seed: 7})
	skewed := NewClock(s, 10*time.Millisecond)
	plain := NewClock(s, 0)
	var gap time.Duration
	var fired bool
	root := s.Go(TaskOpts{Name: "root"}, func() {
		gap = skewed.Now().Sub(plain.Now())
		select {
		case <-skewed.After(time.Millisecond):
			fired = true
		default:
		}
	})
	if err := s.Run(root); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if gap != 10*time.Millisecond {
		t.Errorf("skew = %v, want 10ms", gap)
	}
	if !fired {
		t.Error("After's channel must be fired on return (sleep-then-fire semantics)")
	}
}

func TestPolicyRegistry(t *testing.T) {
	for _, name := range Policies() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown policy name must error")
	}
}

func TestScenarioDerivationCoversMatrix(t *testing.T) {
	kinds := map[string]bool{}
	workloads := map[string]bool{}
	policies := map[string]bool{}
	for seed := int64(0); seed < int64(len(Kinds())*len(WorkloadNames())*len(Policies())); seed++ {
		sc := ScenarioFor(seed)
		kinds[sc.Kind] = true
		workloads[sc.Workload] = true
		policies[sc.Policy] = true
	}
	if len(kinds) != len(Kinds()) {
		t.Errorf("seed range covered %d kinds, want %d", len(kinds), len(Kinds()))
	}
	// torn forces the counter workload, so the counter joins the three
	// derivable workloads.
	if len(workloads) != len(WorkloadNames())+1 {
		t.Errorf("seed range covered %d workloads, want %d", len(workloads), len(WorkloadNames())+1)
	}
	if len(policies) != len(Policies()) {
		t.Errorf("seed range covered %d policies, want %d", len(policies), len(Policies()))
	}
}
