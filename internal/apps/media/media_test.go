package media

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/platform"
	"repro/internal/storage/storagetest"
	"repro/internal/uuid"
)

func newDeployment(t *testing.T, mode beldi.Mode, faults platform.FaultPlan) (*beldi.Deployment, *App) {
	t.Helper()
	store := storagetest.Open(t)
	plat := platform.New(platform.Options{
		ConcurrencyLimit: 10000, IDs: &uuid.Seq{Prefix: "req"}, Faults: faults,
	})
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store: store, Platform: plat, Mode: mode,
		Config: beldi.Config{RowCap: 8, T: 100 * time.Millisecond, ICMinAge: time.Millisecond},
	})
	app := Build(d)
	if err := app.Seed(); err != nil {
		t.Fatal(err)
	}
	return d, app
}

func composeReq(user, title string) beldi.Value {
	return beldi.Map(map[string]beldi.Value{
		"op":     beldi.Str("compose"),
		"user":   beldi.Str(user),
		"title":  beldi.Str(title),
		"text":   beldi.Str("  a fine film  "),
		"rating": beldi.Int(8),
	})
}

func TestComposeReviewPipeline(t *testing.T) {
	d, _ := newDeployment(t, beldi.ModeBeldi, nil)
	out, err := d.Invoke(FnFrontend, composeReq("user-001", MovieTitle(5)))
	if err != nil {
		t.Fatal(err)
	}
	reviewID := out.Str()
	if reviewID == "" {
		t.Fatalf("no review id: %v", out)
	}
	// The review is visible on the movie page, with sanitized text and the
	// resolved movie id.
	page, err := d.Invoke(FnFrontend, beldi.Map(map[string]beldi.Value{
		"op": beldi.Str("page"), "movie": beldi.Str(movieID(5)),
	}))
	if err != nil {
		t.Fatal(err)
	}
	reviews := page.Map()["reviews"].List()
	if len(reviews) != 1 {
		t.Fatalf("%d reviews on page", len(reviews))
	}
	rev := reviews[0].Map()
	if rev["id"].Str() != reviewID {
		t.Errorf("review id %v", rev["id"])
	}
	if rev["text"].Str() != "a fine film" {
		t.Errorf("text not sanitized: %q", rev["text"].Str())
	}
	if rev["movie"].Str() != movieID(5) {
		t.Errorf("movie id %v", rev["movie"])
	}
	// And on the user's review list.
	mine, err := d.Invoke(FnFrontend, beldi.Map(map[string]beldi.Value{
		"op": beldi.Str("userReviews"), "user": beldi.Str("user-001"),
	}))
	if err != nil || len(mine.List()) != 1 {
		t.Errorf("user reviews: %v %v", mine, err)
	}
}

func TestComposeRejectsUnknownUser(t *testing.T) {
	d, _ := newDeployment(t, beldi.ModeBeldi, nil)
	out, err := d.Invoke(FnFrontend, composeReq("nobody", MovieTitle(1)))
	if err != nil || out.Str() != "invalid-user" {
		t.Errorf("unknown user: %v %v", out, err)
	}
}

func TestMoviePageAssemblesAllParts(t *testing.T) {
	d, _ := newDeployment(t, beldi.ModeBeldi, nil)
	page, err := d.Invoke(FnFrontend, beldi.Map(map[string]beldi.Value{
		"op": beldi.Str("page"), "movie": beldi.Str(movieID(42)),
	}))
	if err != nil {
		t.Fatal(err)
	}
	m := page.Map()
	if m["info"].Map()["title"].Str() != MovieTitle(42) {
		t.Errorf("info = %v", m["info"])
	}
	if m["plot"].IsNull() || len(m["cast"].List()) != 2 {
		t.Errorf("plot/cast missing: %v / %v", m["plot"], m["cast"])
	}
}

func TestUniqueIDsSurviveCrashSweep(t *testing.T) {
	// The review counter is the paper's motivating "incrementing a counter
	// twice" hazard (§2.1): crash compose at several points; after
	// recovery exactly one review exists and the sequence advanced once.
	for _, n := range []int{2, 5, 9, 14} {
		plan := &platform.CrashNthOp{Function: FnFrontend, N: n}
		d, _ := newDeployment(t, beldi.ModeBeldi, plan)
		_, err := d.Invoke(FnFrontend, composeReq("user-002", MovieTitle(7)))
		if err != nil && !errors.Is(err, platform.ErrCrashed) && !errors.Is(err, platform.ErrTimeout) {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err != nil {
			// A compose killed before its first effect left no intent for the
			// collectors to finish, so its client retries it.
			if pending, perr := d.Runtime(FnFrontend).DueIntents(); perr != nil || pending == 0 {
				if _, err := d.Invoke(FnFrontend, composeReq("user-002", MovieTitle(7))); err != nil {
					t.Fatalf("n=%d: retry: %v", n, err)
				}
			}
		}
		// Drive recovery until the review shows on both reads (the page
		// update is a later step of the same workflow, so checking the
		// user's reviews alone can observe a restart that is still in
		// flight — slower backends in the matrix make that window real).
		deadline := time.Now().Add(5 * time.Second)
		var page beldi.Value
		for {
			if err := d.RunAllCollectors(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
			out, err := d.Invoke(FnFrontend, beldi.Map(map[string]beldi.Value{
				"op": beldi.Str("userReviews"), "user": beldi.Str("user-002"),
			}))
			if err == nil && len(out.List()) == 1 {
				page, err = d.Invoke(FnFrontend, beldi.Map(map[string]beldi.Value{
					"op": beldi.Str("page"), "movie": beldi.Str(movieID(7)),
				}))
				if err == nil && len(page.Map()["reviews"].List()) == 1 {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("n=%d: review never materialized on both reads (reviews=%v page=%v err=%v)", n, out, page, err)
			}
		}
		if got := len(page.Map()["reviews"].List()); got != 1 {
			t.Errorf("n=%d: %d reviews, want exactly 1", n, got)
		}
	}
}

func TestRegisterIsExactlyOnceClaim(t *testing.T) {
	d, _ := newDeployment(t, beldi.ModeBeldi, nil)
	req := beldi.Map(map[string]beldi.Value{
		"op": beldi.Str("register"), "user": beldi.Str("newbie"),
		"name": beldi.Str("New User"), "password": beldi.Str("s3cret"),
	})
	out, err := d.Invoke(FnUser, req)
	if err != nil || !out.BoolVal() {
		t.Fatalf("first register: %v %v", out, err)
	}
	out, err = d.Invoke(FnUser, req)
	if err != nil || out.BoolVal() {
		t.Errorf("second register should fail: %v %v", out, err)
	}
}

func TestWorkloadMixAllModes(t *testing.T) {
	for _, mode := range []beldi.Mode{beldi.ModeBeldi, beldi.ModeCrossTable, beldi.ModeBaseline} {
		t.Run(mode.String(), func(t *testing.T) {
			d, app := newDeployment(t, mode, nil)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 20; i++ {
				if _, err := d.Invoke(app.Entry(), app.Request(rng)); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
		})
	}
}
