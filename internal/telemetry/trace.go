package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Trace is the set of spans causally reachable from one root intent — one
// workflow, across every SSF it invoked, every queue hop that carried it,
// and every execution attempt (pre-crash and collector-restarted alike).
type Trace struct {
	Root  string `json:"root"`
	Spans []Span `json:"spans"`
}

// Assemble extracts the trace rooted at the given intent from a span pool.
// Causal edges come from two places the protocol already records: exec
// spans carry their caller's coordinates (child→parent), and
// call/async/await spans carry the minted callee id (parent→child).
// Following both directions from the root closes over the workflow even
// when one side's span was lost to a crash.
func Assemble(spans []Span, root string) Trace {
	children := make(map[string][]string)
	link := func(parent, child string) {
		if parent == "" || child == "" || parent == child {
			return
		}
		children[parent] = append(children[parent], child)
	}
	for _, s := range spans {
		if s.Kind == KindExec {
			link(s.ParentIntent, s.Intent)
		}
		if s.Child != "" {
			link(s.Intent, s.Child)
		}
	}
	in := map[string]bool{root: true}
	queue := []string{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range children[cur] {
			if !in[c] {
				in[c] = true
				queue = append(queue, c)
			}
		}
	}
	tr := Trace{Root: root}
	for _, s := range spans {
		if in[s.Intent] {
			tr.Spans = append(tr.Spans, s)
		}
	}
	return tr
}

// Roots lists the root intents present in a span pool: intents that have
// an exec span and no caller (or whose caller's spans are not in the
// pool), oldest first.
func Roots(spans []Span) []string {
	intents := make(map[string]*info)
	for _, s := range spans {
		if s.Kind != KindExec {
			continue
		}
		cur, ok := intents[s.Intent]
		if !ok {
			cur = &info{parent: s.ParentIntent, start: s.Start, seen: true}
			intents[s.Intent] = cur
		}
		if s.Start < cur.start {
			cur.start = s.Start
		}
		if s.ParentIntent != "" {
			cur.parent = s.ParentIntent
		}
	}
	var roots []string
	for id, inf := range intents {
		if inf.parent == "" || !intents[inf.parent].isKnown() {
			roots = append(roots, id)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if intents[roots[i]].start != intents[roots[j]].start {
			return intents[roots[i]].start < intents[roots[j]].start
		}
		return roots[i] < roots[j]
	})
	return roots
}

func (i *info) isKnown() bool { return i != nil && i.seen }

type info struct {
	parent string
	start  int64
	seen   bool
}

// Summary describes the trace on one line: intent count, span count,
// attempts of the root, replayed spans.
func (tr Trace) Summary() string {
	intents := make(map[string]bool)
	rootAttempts, replays := 0, 0
	for _, s := range tr.Spans {
		intents[s.Intent] = true
		if s.Kind == KindExec && s.Intent == tr.Root {
			rootAttempts++
		}
		if s.Replay {
			replays++
		}
	}
	return fmt.Sprintf("trace %s — %d intents, %d spans, %d root attempts, %d replayed",
		tr.Root, len(intents), len(tr.Spans), rootAttempts, replays)
}

// Render writes the trace as an indented tree: one block per intent, one
// line per execution attempt with its duration and outcome, one line per
// step with duration and a (replay) marker, and child intents nested under
// the call span that minted them.
func (tr Trace) Render(w io.Writer) {
	byIntent := make(map[string][]Span)
	for _, s := range tr.Spans {
		byIntent[s.Intent] = append(byIntent[s.Intent], s)
	}
	fmt.Fprintln(w, tr.Summary())
	rendered := make(map[string]bool)
	renderIntent(w, byIntent, tr.Root, "", rendered)
	// Spans whose intent is unreachable from the rendered tree (should not
	// happen for a well-formed trace; surfaced rather than hidden).
	var orphans []string
	for id := range byIntent {
		if !rendered[id] {
			orphans = append(orphans, id)
		}
	}
	sort.Strings(orphans)
	for _, id := range orphans {
		fmt.Fprintf(w, "orphan intent %s (%d spans)\n", id, len(byIntent[id]))
	}
}

func renderIntent(w io.Writer, byIntent map[string][]Span, id, indent string, rendered map[string]bool) {
	if rendered[id] {
		fmt.Fprintf(w, "%s^ %s (already rendered)\n", indent, id)
		return
	}
	rendered[id] = true
	spans := byIntent[id]
	var execs, steps, hops []Span
	for _, s := range spans {
		switch s.Kind {
		case KindExec:
			execs = append(execs, s)
		case KindQueueHop:
			hops = append(hops, s)
		default:
			steps = append(steps, s)
		}
	}
	sortSpans(execs)
	sortSpans(steps)
	fn := id
	if len(execs) > 0 && execs[0].Fn != "" {
		fn = execs[0].Fn + " " + id
	}
	fmt.Fprintf(w, "%s%s\n", indent, fn)
	for _, h := range hops {
		fmt.Fprintf(w, "%s  queue.hop %s (%s)\n", indent, h.Fn, dur(h))
	}
	if len(execs) == 0 {
		// No execution observed (e.g. durable trace of a collected
		// intent); render the bare steps.
		for _, s := range steps {
			renderStep(w, byIntent, s, indent+"  ", rendered)
		}
		return
	}
	for i, ex := range execs {
		outcome := "ok"
		if ex.Err != "" {
			outcome = strings.ToUpper(ex.Err)
		}
		replayNote := ""
		if ex.Replay {
			replayNote = " (restart)"
		}
		if ex.Name != "" {
			// What the protocol made of the attempt: "deduplicated" (its
			// intent was already done), "effect-free" (it returned without
			// an effect, so it has no intent row).
			outcome += " (" + ex.Name + ")"
		}
		fmt.Fprintf(w, "%s  attempt %d%s [%s] %s\n", indent, i+1, replayNote, dur(ex), outcome)
		for _, s := range steps {
			if !within(s, ex) {
				continue
			}
			renderStep(w, byIntent, s, indent+"    ", rendered)
		}
	}
	// Steps outside every attempt window (clock skew, lost exec span).
	for _, s := range steps {
		covered := false
		for _, ex := range execs {
			if within(s, ex) {
				covered = true
				break
			}
		}
		if !covered {
			renderStep(w, byIntent, s, indent+"  ", rendered)
		}
	}
}

func renderStep(w io.Writer, byIntent map[string][]Span, s Span, indent string, rendered map[string]bool) {
	mark := ""
	if s.Replay {
		mark = " (replay)"
	}
	errNote := ""
	if s.Err != "" {
		errNote = " err=" + s.Err
	}
	target := s.Name
	if s.Child != "" {
		target += " → " + s.Child
	}
	fmt.Fprintf(w, "%s%-9s %s (%s)%s%s\n", indent, s.Kind, target, dur(s), mark, errNote)
	if s.Child != "" && len(byIntent[s.Child]) > 0 && s.Kind != KindAwait {
		renderIntent(w, byIntent, s.Child, indent+"  ", rendered)
	}
}

func within(s, ex Span) bool { return s.Start >= ex.Start && s.Start <= ex.End }

func sortSpans(ss []Span) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Start != ss[j].Start {
			return ss[i].Start < ss[j].Start
		}
		return ss[i].Step < ss[j].Step
	})
}

func dur(s Span) string {
	d := time.Duration(s.End - s.Start)
	if d < 0 {
		d = 0
	}
	return d.Round(time.Microsecond).String()
}
