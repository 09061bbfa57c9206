package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRealClockMonotone(t *testing.T) {
	var c Real
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if !b.After(a) {
		t.Errorf("time went backwards: %v then %v", a, b)
	}
}

func TestManualNowAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatal("wrong start")
	}
	m.Advance(5 * time.Second)
	if got := m.Now(); !got.Equal(start.Add(5 * time.Second)) {
		t.Errorf("Now = %v", got)
	}
}

func TestManualAfterFires(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	ch := m.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired at 9s")
	default:
	}
	m.Advance(time.Second)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("never fired")
	}
}

func TestManualAfterNonPositive(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	select {
	case <-m.After(0):
	case <-time.After(time.Second):
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestManualSleepWakes(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		m.Sleep(3 * time.Second)
		close(done)
	}()
	// Give the sleeper a moment to register.
	time.Sleep(10 * time.Millisecond)
	m.Advance(3 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sleeper never woke")
	}
}

func TestManualMultipleWaitersOrdering(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	early := m.After(time.Second)
	late := m.After(time.Minute)
	m.Advance(2 * time.Second)
	select {
	case <-early:
	default:
		t.Fatal("early waiter not woken")
	}
	select {
	case <-late:
		t.Fatal("late waiter woken too soon")
	default:
	}
	m.Advance(time.Hour)
	select {
	case <-late:
	default:
		t.Fatal("late waiter never woken")
	}
}

func TestVirtualSleepAdvancesNow(t *testing.T) {
	start := time.Unix(1000, 0)
	v := NewVirtual(start)
	v.Sleep(3 * time.Millisecond)
	v.Sleep(4 * time.Millisecond)
	if got := v.Now().Sub(start); got != 7*time.Millisecond {
		t.Errorf("two sleeps advanced the clock by %v, want 7ms", got)
	}
}

func TestVirtualAfterFiresOncePassed(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	ch := v.After(10 * time.Millisecond)
	v.Sleep(9 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("fired at 9ms")
	default:
	}
	v.Sleep(2 * time.Millisecond)
	select {
	case at := <-ch:
		if want := time.Unix(0, 0).Add(11 * time.Millisecond); !at.Equal(want) {
			t.Errorf("delivered %v, want the sleep's end %v", at, want)
		}
	default:
		t.Fatal("not fired once a sleep passed the deadline")
	}
}

func TestVirtualSleepNonPositiveIsNoop(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewVirtual(start)
	ch := v.After(0)
	<-ch // After(0) fires at once, as on Manual
	v.Sleep(0)
	v.Sleep(-time.Second)
	if got := v.Now(); !got.Equal(start) {
		t.Errorf("Sleep(<=0) moved the clock to %v", got)
	}
}

func TestVirtualConcurrentSleepsAddUp(t *testing.T) {
	// The documented limit: concurrent sleeps are charged in sequence.
	v := NewVirtual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Sleep(time.Millisecond)
		}()
	}
	wg.Wait()
	if got := v.Now().Sub(time.Unix(0, 0)); got != 4*time.Millisecond {
		t.Errorf("four concurrent 1ms sleeps advanced %v, want 4ms", got)
	}
}

// TestModeledWaitsSleepOnAClock keeps every modeled cost of the substrate on
// the clock seam: no non-test file of the store or the platform calls
// time.Sleep, so a run on a Virtual clock charges every wait to it.
func TestModeledWaitsSleepOnAClock(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../dynamo", "../platform"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in %s", dir)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			timeName := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"time"` {
					timeName = "time"
					if imp.Name != nil {
						timeName = imp.Name.Name
					}
				}
			}
			if timeName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName && sel.Sel.Name == "Sleep" {
					t.Errorf("%s: calls time.Sleep; charge the wait to the clock", fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
}
