// Package social is the paper's social media site case study (§7.1,
// Appendix B Figure 24): a serverless port of DeathStarBench's social
// network. Users log in, follow each other, compose posts that mention
// users, shorten URLs and attach media, and read home/user timelines.
//
// The workflow (13 SSFs):
//
//	client → frontend → compose-post → {unique-id, media, text → {url-shorten,
//	                                    user-mention}, user} → post-storage
//	                                  → social-graph → timeline-storage
//	        frontend → home-timeline → timeline-storage → post-storage
//	        frontend → user-timeline → timeline-storage → post-storage
package social

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/beldi"
)

// Graph sizes.
const (
	NumUsers     = 300
	MaxFollowers = 8
	TimelineCap  = 20
)

// Function names.
const (
	FnFrontend     = "social-frontend"
	FnComposePost  = "social-compose-post"
	FnUniqueID     = "social-unique-id"
	FnMedia        = "social-media"
	FnText         = "social-text"
	FnURLShorten   = "social-url-shorten"
	FnUserMention  = "social-user-mention"
	FnUser         = "social-user"
	FnPostStorage  = "social-post-storage"
	FnSocialGraph  = "social-graph"
	FnTimeline     = "social-timeline-storage"
	FnUserTimeline = "social-user-timeline"
	FnHomeTimeline = "social-home-timeline"
)

// App wires the workflow.
type App struct {
	d *beldi.Deployment
}

// Build registers the thirteen SSFs.
func Build(d *beldi.Deployment) *App {
	a := &App{d: d}
	d.Function(FnUniqueID, a.uniqueID, "seq")
	d.Function(FnMedia, a.media, "media")
	d.Function(FnURLShorten, a.urlShorten, "urls")
	d.Function(FnUserMention, a.userMention, "mentions")
	d.Function(FnText, a.text)
	d.Function(FnUser, a.user, "users")
	d.Function(FnPostStorage, a.postStorage, "posts")
	d.Function(FnSocialGraph, a.socialGraph, "graph")
	d.Function(FnTimeline, a.timeline, "timelines")
	d.Function(FnUserTimeline, a.userTimeline)
	d.Function(FnHomeTimeline, a.homeTimeline)
	d.Function(FnComposePost, a.composePost)
	d.Function(FnFrontend, a.frontend)
	return a
}

// Seed populates users and the follower graph.
func (a *App) Seed() error {
	for _, fn := range []string{FnUser, FnSocialGraph} {
		if _, err := a.d.Invoke(fn, beldi.Fields(beldi.F("op", beldi.Str("seed")))); err != nil {
			return fmt.Errorf("social: seeding %s: %w", fn, err)
		}
	}
	return nil
}

func userID(i int) string { return fmt.Sprintf("user-%03d", i) }

// --- leaf SSFs --------------------------------------------------------------

func (a *App) uniqueID(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	n, err := e.Read("seq", "post")
	if err != nil {
		return beldi.Null, err
	}
	next := n.Int() + 1
	if err := e.Write("seq", "post", beldi.Int(next)); err != nil {
		return beldi.Null, err
	}
	return beldi.Str(fmt.Sprintf("post-%010d", next)), nil
}

func (a *App) media(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	urls := in.Get("media")
	if urls.IsNull() {
		return beldi.List(), nil
	}
	var stored []beldi.Value
	for i, u := range urls.List() {
		key := fmt.Sprintf("%s-m%d", e.InstanceID(), i)
		if err := e.Write("media", key, u); err != nil {
			return beldi.Null, err
		}
		stored = append(stored, beldi.Str(key))
	}
	return beldi.List(stored...), nil
}

func (a *App) urlShorten(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	var out []beldi.Value
	for _, u := range in.Get("urls").List() {
		short := fmt.Sprintf("s.ly/%08x", hash32(u.Str()))
		if err := e.Write("urls", short, u); err != nil {
			return beldi.Null, err
		}
		out = append(out, beldi.Str(short))
	}
	return beldi.List(out...), nil
}

func hash32(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (a *App) userMention(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	var out []beldi.Value
	for _, m := range in.Get("mentions").List() {
		// Record the mention against the mentioned user.
		if err := appendCapped(e, "mentions", m.Str(), in.Get("postId"), TimelineCap); err != nil {
			return beldi.Null, err
		}
		out = append(out, m)
	}
	return beldi.List(out...), nil
}

// text extracts URLs and @mentions and fans out to the shortener and the
// mention service (Figure 24's Text → {UrlShorten, UserMention} edges).
func (a *App) text(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	body := in.Get("text").Str()
	var urls, mentions []beldi.Value
	for _, tok := range strings.Fields(body) {
		switch {
		case strings.HasPrefix(tok, "http://"), strings.HasPrefix(tok, "https://"):
			urls = append(urls, beldi.Str(tok))
		case strings.HasPrefix(tok, "@"):
			mentions = append(mentions, beldi.Str(strings.TrimPrefix(tok, "@")))
		}
	}
	var shortened, mentioned beldi.Value
	err := e.Parallel(
		func(sub *beldi.Env) error {
			var err error
			shortened, err = sub.SyncInvoke(FnURLShorten, beldi.Fields(beldi.F("urls", beldi.List(urls...))))
			return err
		},
		func(sub *beldi.Env) error {
			var err error
			mentioned, err = sub.SyncInvoke(FnUserMention, beldi.Fields(
				beldi.F("mentions", beldi.List(mentions...)),
				beldi.F("postId", in.Get("postId")),
			))
			return err
		},
	)
	if err != nil {
		return beldi.Null, err
	}
	return beldi.Fields(
		beldi.F("text", beldi.Str(body)),
		beldi.F("urls", shortened),
		beldi.F("mentions", mentioned),
	), nil
}

func (a *App) user(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch in.Get("op").Str() {
	case "seed":
		for i := 0; i < NumUsers; i++ {
			u := beldi.Fields(
				beldi.F("name", beldi.Str(fmt.Sprintf("user %d", i))),
				beldi.F("password", beldi.Str(fmt.Sprintf("pw-%03d", i))),
			)
			if err := e.Write("users", userID(i), u); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	case "login":
		u, err := e.Read("users", in.Get("user").Str())
		if err != nil {
			return beldi.Null, err
		}
		ok := !u.IsNull() && u.Get("password").Str() == in.Get("password").Str()
		return beldi.BoolVal(ok), nil
	default: // resolve
		return e.Read("users", in.Get("user").Str())
	}
}

func (a *App) postStorage(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch in.Get("op").Str() {
	case "store":
		post := in.Get("post")
		return beldi.Str("stored"), e.Write("posts", post.Get("id").Str(), post)
	default: // fetch
		var out []beldi.Value
		for _, idv := range in.Get("ids").List() {
			p, err := e.Read("posts", idv.Str())
			if err != nil {
				return beldi.Null, err
			}
			if !p.IsNull() {
				out = append(out, p)
			}
		}
		return beldi.List(out...), nil
	}
}

// socialGraph stores follower lists; followers of u receive u's posts on
// their home timelines.
func (a *App) socialGraph(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch in.Get("op").Str() {
	case "seed":
		for i := 0; i < NumUsers; i++ {
			var followers []beldi.Value
			n := 1 + i%MaxFollowers
			for j := 1; j <= n; j++ {
				followers = append(followers, beldi.Str(userID((i+j*17)%NumUsers)))
			}
			if err := e.Write("graph", userID(i), beldi.List(followers...)); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	case "follow":
		return beldi.Str("ok"), appendCapped(e, "graph", in.Get("followee").Str(), in.Get("follower"), NumUsers)
	default: // followers
		return e.Read("graph", in.Get("user").Str())
	}
}

// timeline stores per-user timelines: "h|user" home, "u|user" own posts.
func (a *App) timeline(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	key := in.Get("kind").Str() + "|" + in.Get("user").Str()
	switch in.Get("op").Str() {
	case "append":
		return beldi.Str("ok"), appendCapped(e, "timelines", key, in.Get("postId"), TimelineCap)
	default: // read
		return e.Read("timelines", key)
	}
}

func (a *App) userTimeline(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	ids, err := e.SyncInvoke(FnTimeline, beldi.Fields(
		beldi.F("op", beldi.Str("read")),
		beldi.F("kind", beldi.Str("u")),
		beldi.F("user", in.Get("user")),
	))
	if err != nil {
		return beldi.Null, err
	}
	return e.SyncInvoke(FnPostStorage, beldi.Fields(
		beldi.F("op", beldi.Str("fetch")),
		beldi.F("ids", ids),
	))
}

func (a *App) homeTimeline(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	ids, err := e.SyncInvoke(FnTimeline, beldi.Fields(
		beldi.F("op", beldi.Str("read")),
		beldi.F("kind", beldi.Str("h")),
		beldi.F("user", in.Get("user")),
	))
	if err != nil {
		return beldi.Null, err
	}
	return e.SyncInvoke(FnPostStorage, beldi.Fields(
		beldi.F("op", beldi.Str("fetch")),
		beldi.F("ids", ids),
	))
}

// composePost is Figure 24's hub: mint an id, process text/media/user in
// parallel, store the post, then fan the post id out to the author's user
// timeline and every follower's home timeline.
func (a *App) composePost(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	postID, err := e.SyncInvoke(FnUniqueID, beldi.Null)
	if err != nil {
		return beldi.Null, err
	}
	var textOut, mediaOut, author beldi.Value
	err = e.Parallel(
		func(sub *beldi.Env) error {
			var err error
			textOut, err = sub.SyncInvoke(FnText, beldi.Fields(
				beldi.F("text", in.Get("text")),
				beldi.F("postId", postID),
			))
			return err
		},
		func(sub *beldi.Env) error {
			var err error
			mediaOut, err = sub.SyncInvoke(FnMedia, beldi.Fields(beldi.F("media", in.Get("media"))))
			return err
		},
		func(sub *beldi.Env) error {
			var err error
			author, err = sub.SyncInvoke(FnUser, beldi.Fields(
				beldi.F("op", beldi.Str("resolve")),
				beldi.F("user", in.Get("user")),
			))
			return err
		},
	)
	if err != nil {
		return beldi.Null, err
	}
	post := beldi.Fields(
		beldi.F("id", postID),
		beldi.F("user", in.Get("user")),
		beldi.F("author", author),
		beldi.F("body", textOut),
		beldi.F("media", mediaOut),
	)
	if _, err := e.SyncInvoke(FnPostStorage, beldi.Fields(
		beldi.F("op", beldi.Str("store")),
		beldi.F("post", post),
	)); err != nil {
		return beldi.Null, err
	}
	// Own timeline.
	if _, err := e.SyncInvoke(FnTimeline, beldi.Fields(
		beldi.F("op", beldi.Str("append")),
		beldi.F("kind", beldi.Str("u")),
		beldi.F("user", in.Get("user")),
		beldi.F("postId", postID),
	)); err != nil {
		return beldi.Null, err
	}
	// Followers' home timelines.
	followers, err := e.SyncInvoke(FnSocialGraph, beldi.Fields(
		beldi.F("op", beldi.Str("followers")),
		beldi.F("user", in.Get("user")),
	))
	if err != nil {
		return beldi.Null, err
	}
	for _, fv := range followers.List() {
		if _, err := e.SyncInvoke(FnTimeline, beldi.Fields(
			beldi.F("op", beldi.Str("append")),
			beldi.F("kind", beldi.Str("h")),
			beldi.F("user", fv),
			beldi.F("postId", postID),
		)); err != nil {
			return beldi.Null, err
		}
	}
	return postID, nil
}

// frontend routes client requests.
func (a *App) frontend(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch in.Get("op").Str() {
	case "compose":
		return e.SyncInvoke(FnComposePost, in)
	case "home":
		return e.SyncInvoke(FnHomeTimeline, in)
	case "user":
		return e.SyncInvoke(FnUserTimeline, in)
	case "login":
		return e.SyncInvoke(FnUser, beldi.Fields(
			beldi.F("op", beldi.Str("login")),
			beldi.F("user", in.Get("user")),
			beldi.F("password", in.Get("password")),
		))
	case "follow":
		return e.SyncInvoke(FnSocialGraph, in)
	default:
		return beldi.Null, fmt.Errorf("social: unknown op %q", in.Get("op").Str())
	}
}

// appendCapped appends v to the list at key, keeping the newest limit
// entries.
func appendCapped(e *beldi.Env, table, key string, v beldi.Value, limit int) error {
	cur, err := e.Read(table, key)
	if err != nil {
		return err
	}
	ids := append([]beldi.Value{}, cur.List()...)
	ids = append(ids, v)
	if len(ids) > limit {
		ids = ids[len(ids)-limit:]
	}
	return e.Write(table, key, beldi.List(ids...))
}

// --- workload ---------------------------------------------------------------

// Entry returns the workflow's entry function.
func (a *App) Entry() string { return FnFrontend }

// Request draws from the social mix: mostly timeline reads with a compose
// and login tail.
func (a *App) Request(r *rand.Rand) beldi.Value {
	p := r.Float64()
	u := userID(r.Intn(NumUsers))
	switch {
	case p < 0.55:
		return beldi.Fields(
			beldi.F("op", beldi.Str("home")),
			beldi.F("user", beldi.Str(u)),
		)
	case p < 0.80:
		return beldi.Fields(
			beldi.F("op", beldi.Str("user")),
			beldi.F("user", beldi.Str(u)),
		)
	case p < 0.90:
		mention := userID(r.Intn(NumUsers))
		return beldi.Fields(
			beldi.F("op", beldi.Str("compose")),
			beldi.F("user", beldi.Str(u)),
			beldi.F("text", beldi.Str("hello @"+mention+" see https://example.com/"+u)),
			beldi.F("media", beldi.List(
				beldi.Str("https://img.example.com/"+u+".png"),
			)),
		)
	default:
		i := r.Intn(NumUsers)
		return beldi.Fields(
			beldi.F("op", beldi.Str("login")),
			beldi.F("user", beldi.Str(userID(i))),
			beldi.F("password", beldi.Str(fmt.Sprintf("pw-%03d", i))),
		)
	}
}
