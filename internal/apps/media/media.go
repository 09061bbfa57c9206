// Package media is the paper's movie review service case study (§7.1,
// Appendix B Figure 23): a serverless port of DeathStarBench's media
// microservices. Users create accounts, read reviews, view movie pages
// (plot, cast, info) and write reviews and articles.
//
// The workflow (13 SSFs):
//
//	client → frontend → user ─┐
//	                  → text ─┤
//	                  → movie-id ─┼→ compose-review → review-storage
//	                  → unique-id ┘                 → user-review
//	                                                → movie-review
//	        frontend → page → {movie-info, plot, cast-info, movie-review → review-storage}
package media

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/beldi"
)

// Catalogue sizes.
const (
	NumMovies = 200
	NumUsers  = 500
)

// Function names.
const (
	FnFrontend      = "media-frontend"
	FnUser          = "media-user"
	FnText          = "media-text"
	FnMovieID       = "media-movie-id"
	FnUniqueID      = "media-unique-id"
	FnComposeReview = "media-compose-review"
	FnReviewStorage = "media-review-storage"
	FnUserReview    = "media-user-review"
	FnMovieReview   = "media-movie-review"
	FnPage          = "media-page"
	FnMovieInfo     = "media-movie-info"
	FnPlot          = "media-plot"
	FnCastInfo      = "media-cast-info"
)

// App wires the workflow.
type App struct {
	d *beldi.Deployment
}

// Build registers the thirteen SSFs.
func Build(d *beldi.Deployment) *App {
	a := &App{d: d}
	d.Function(FnUser, a.user, "users")
	d.Function(FnText, a.text)
	d.Function(FnMovieID, a.movieID, "titles")
	d.Function(FnUniqueID, a.uniqueID, "seq")
	d.Function(FnReviewStorage, a.reviewStorage, "reviews")
	d.Function(FnUserReview, a.userReview, "byuser")
	d.Function(FnMovieReview, a.movieReview, "bymovie")
	d.Function(FnComposeReview, a.composeReview)
	d.Function(FnMovieInfo, a.movieInfo, "info")
	d.Function(FnPlot, a.plot, "plots")
	d.Function(FnCastInfo, a.castInfo, "casts")
	d.Function(FnPage, a.page)
	d.Function(FnFrontend, a.frontend)
	return a
}

// Seed populates catalogue data.
func (a *App) Seed() error {
	for _, fn := range []string{FnUser, FnMovieID, FnMovieInfo, FnPlot, FnCastInfo} {
		if _, err := a.d.Invoke(fn, beldi.Fields(beldi.F("op", beldi.Str("seed")))); err != nil {
			return fmt.Errorf("media: seeding %s: %w", fn, err)
		}
	}
	return nil
}

func movieID(i int) string { return fmt.Sprintf("movie-%04d", i) }
func userID(i int) string  { return fmt.Sprintf("user-%03d", i) }

// MovieTitle is the human title resolved by the movie-id SSF.
func MovieTitle(i int) string { return fmt.Sprintf("The Example Movie %d", i) }

// --- account / text / id SSFs ---------------------------------------------

func (a *App) user(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch in.Get("op").Str() {
	case "seed":
		for i := 0; i < NumUsers; i++ {
			u := beldi.Fields(
				beldi.F("name", beldi.Str(fmt.Sprintf("User %03d", i))),
				beldi.F("password", beldi.Str(fmt.Sprintf("pw-%03d", i))),
			)
			if err := e.Write("users", userID(i), u); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	case "register":
		ok, err := e.CondWrite("users", in.Get("user").Str(),
			beldi.Fields(
				beldi.F("name", in.Get("name")),
				beldi.F("password", in.Get("password")),
			),
			beldi.ValueAbsent())
		if err != nil {
			return beldi.Null, err
		}
		return beldi.BoolVal(ok), nil
	default: // validate
		u, err := e.Read("users", in.Get("user").Str())
		if err != nil {
			return beldi.Null, err
		}
		if u.IsNull() {
			return beldi.BoolVal(false), nil
		}
		return beldi.Fields(
			beldi.F("valid", beldi.BoolVal(true)),
			beldi.F("user", in.Get("user")),
		), nil
	}
}

// text sanitizes review text (pure compute: no state, still exactly-once by
// construction).
func (a *App) text(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	t := in.Get("text").Str()
	t = strings.TrimSpace(t)
	if len(t) > 512 {
		t = t[:512]
	}
	return beldi.Str(t), nil
}

// movieID resolves a title to the canonical id.
func (a *App) movieID(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumMovies; i++ {
			if err := e.Write("titles", MovieTitle(i), beldi.Str(movieID(i))); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	return e.Read("titles", in.Get("title").Str())
}

// uniqueID mints review ids from a persisted counter — the classic
// increment that must not double under re-execution.
func (a *App) uniqueID(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	n, err := e.Read("seq", "review")
	if err != nil {
		return beldi.Null, err
	}
	next := n.Int() + 1
	if err := e.Write("seq", "review", beldi.Int(next)); err != nil {
		return beldi.Null, err
	}
	return beldi.Str(fmt.Sprintf("review-%08d", next)), nil
}

// --- review pipeline -------------------------------------------------------

func (a *App) composeReview(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	review := beldi.Fields(
		beldi.F("id", in.Get("reviewId")),
		beldi.F("user", in.Get("user")),
		beldi.F("movie", in.Get("movie")),
		beldi.F("text", in.Get("text")),
		beldi.F("rating", in.Get("rating")),
	)
	if _, err := e.SyncInvoke(FnReviewStorage, beldi.Fields(
		beldi.F("op", beldi.Str("store")),
		beldi.F("review", review),
	)); err != nil {
		return beldi.Null, err
	}
	// Index maintenance in both directions.
	if _, err := e.SyncInvoke(FnUserReview, beldi.Fields(
		beldi.F("user", in.Get("user")),
		beldi.F("reviewId", in.Get("reviewId")),
	)); err != nil {
		return beldi.Null, err
	}
	if _, err := e.SyncInvoke(FnMovieReview, beldi.Fields(
		beldi.F("movie", in.Get("movie")),
		beldi.F("reviewId", in.Get("reviewId")),
	)); err != nil {
		return beldi.Null, err
	}
	return in.Get("reviewId"), nil
}

func (a *App) reviewStorage(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch in.Get("op").Str() {
	case "store":
		rev := in.Get("review")
		return beldi.Str("stored"), e.Write("reviews", rev.Get("id").Str(), rev)
	default: // fetch
		var out []beldi.Value
		for _, idv := range in.Get("ids").List() {
			r, err := e.Read("reviews", idv.Str())
			if err != nil {
				return beldi.Null, err
			}
			if !r.IsNull() {
				out = append(out, r)
			}
		}
		return beldi.List(out...), nil
	}
}

// appendCapped appends id to the list at key, keeping the newest limit ids.
func appendCapped(e *beldi.Env, table, key string, id beldi.Value, limit int) error {
	cur, err := e.Read(table, key)
	if err != nil {
		return err
	}
	ids := append([]beldi.Value{}, cur.List()...)
	ids = append(ids, id)
	if len(ids) > limit {
		ids = ids[len(ids)-limit:]
	}
	return e.Write(table, key, beldi.List(ids...))
}

func (a *App) userReview(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "list" {
		return e.Read("byuser", in.Get("user").Str())
	}
	return beldi.Str("ok"), appendCapped(e, "byuser", in.Get("user").Str(), in.Get("reviewId"), 20)
}

func (a *App) movieReview(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "list" {
		ids, err := e.Read("bymovie", in.Get("movie").Str())
		if err != nil {
			return beldi.Null, err
		}
		return e.SyncInvoke(FnReviewStorage, beldi.Fields(
			beldi.F("op", beldi.Str("fetch")),
			beldi.F("ids", ids),
		))
	}
	return beldi.Str("ok"), appendCapped(e, "bymovie", in.Get("movie").Str(), in.Get("reviewId"), 20)
}

// --- movie page ------------------------------------------------------------

func (a *App) movieInfo(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumMovies; i++ {
			info := beldi.Fields(
				beldi.F("title", beldi.Str(MovieTitle(i))),
				beldi.F("year", beldi.Int(int64(1970+i%55))),
			)
			if err := e.Write("info", movieID(i), info); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	return e.Read("info", in.Get("movie").Str())
}

func (a *App) plot(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumMovies; i++ {
			if err := e.Write("plots", movieID(i),
				beldi.Str(fmt.Sprintf("A thrilling plot for movie %d.", i))); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	return e.Read("plots", in.Get("movie").Str())
}

func (a *App) castInfo(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumMovies; i++ {
			cast := beldi.List(
				beldi.Str(fmt.Sprintf("Actor %d", i%50)),
				beldi.Str(fmt.Sprintf("Actor %d", (i+7)%50)),
			)
			if err := e.Write("casts", movieID(i), cast); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	return e.Read("casts", in.Get("movie").Str())
}

// page assembles a movie page from four SSFs in parallel — the read path of
// Figure 23.
func (a *App) page(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	var info, plot, cast, reviews beldi.Value
	req := in
	err := e.Parallel(
		func(sub *beldi.Env) error {
			var err error
			info, err = sub.SyncInvoke(FnMovieInfo, req)
			return err
		},
		func(sub *beldi.Env) error {
			var err error
			plot, err = sub.SyncInvoke(FnPlot, req)
			return err
		},
		func(sub *beldi.Env) error {
			var err error
			cast, err = sub.SyncInvoke(FnCastInfo, req)
			return err
		},
		func(sub *beldi.Env) error {
			var err error
			reviews, err = sub.SyncInvoke(FnMovieReview, beldi.Fields(
				beldi.F("op", beldi.Str("list")),
				beldi.F("movie", req.Get("movie")),
			))
			return err
		},
	)
	if err != nil {
		return beldi.Null, err
	}
	return beldi.Fields(
		beldi.F("info", info),
		beldi.F("plot", plot),
		beldi.F("cast", cast),
		beldi.F("reviews", reviews),
	), nil
}

// frontend routes client requests.
func (a *App) frontend(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch in.Get("op").Str() {
	case "compose":
		// Validate the user, sanitize text, resolve the movie id and mint
		// the review id, then run the compose pipeline (Figure 23's write
		// path).
		valid, err := e.SyncInvoke(FnUser, beldi.Fields(beldi.F("user", in.Get("user"))))
		if err != nil {
			return beldi.Null, err
		}
		if valid.MapLen() == 0 { // the user SSF returns false for unknown users
			return beldi.Str("invalid-user"), nil
		}
		var text, movie, reviewID beldi.Value
		err = e.Parallel(
			func(sub *beldi.Env) error {
				var err error
				text, err = sub.SyncInvoke(FnText, in)
				return err
			},
			func(sub *beldi.Env) error {
				var err error
				movie, err = sub.SyncInvoke(FnMovieID, in)
				return err
			},
			func(sub *beldi.Env) error {
				var err error
				reviewID, err = sub.SyncInvoke(FnUniqueID, beldi.Null)
				return err
			},
		)
		if err != nil {
			return beldi.Null, err
		}
		return e.SyncInvoke(FnComposeReview, beldi.Fields(
			beldi.F("reviewId", reviewID),
			beldi.F("user", in.Get("user")),
			beldi.F("movie", movie),
			beldi.F("text", text),
			beldi.F("rating", in.Get("rating")),
		))
	case "page":
		return e.SyncInvoke(FnPage, in)
	case "userReviews":
		return e.SyncInvoke(FnUserReview, beldi.Fields(
			beldi.F("op", beldi.Str("list")),
			beldi.F("user", in.Get("user")),
		))
	default:
		return beldi.Null, fmt.Errorf("media: unknown op %q", in.Get("op").Str())
	}
}

// --- workload ---------------------------------------------------------------

// Entry returns the workflow's entry function.
func (a *App) Entry() string { return FnFrontend }

// Request draws from the media mix: mostly page views, some review
// composition and user-review listings.
func (a *App) Request(r *rand.Rand) beldi.Value {
	p := r.Float64()
	movie := r.Intn(NumMovies)
	switch {
	case p < 0.65:
		return beldi.Fields(
			beldi.F("op", beldi.Str("page")),
			beldi.F("movie", beldi.Str(movieID(movie))),
		)
	case p < 0.80:
		return beldi.Fields(
			beldi.F("op", beldi.Str("userReviews")),
			beldi.F("user", beldi.Str(userID(r.Intn(NumUsers)))),
		)
	default:
		return beldi.Fields(
			beldi.F("op", beldi.Str("compose")),
			beldi.F("user", beldi.Str(userID(r.Intn(NumUsers)))),
			beldi.F("title", beldi.Str(MovieTitle(movie))),
			beldi.F("text", beldi.Str("  An insightful review with trailing spaces.  ")),
			beldi.F("rating", beldi.Int(int64(1+r.Intn(10)))),
		)
	}
}
