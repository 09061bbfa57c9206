// Package fanout is a map-reduce-style word-count workload built entirely
// on the typed public API and durable promises: a driver SSF fans one
// mapper invocation per document out with Func.Async, awaits all of them
// (each await a logged step), merges the counts, and commits the totals —
// the fan-out/fan-in orchestration shape that Durable Functions/Netherite
// treat as serverless workflows' bread and butter, here with Beldi's
// exactly-once guarantee end to end. The driver can crash at any operation
// boundary: the intent collector re-executes it, the replayed awaits
// observe the identical posted results, and the totals commit once.
package fanout

import (
	"sort"
	"strings"

	"repro/beldi"
)

// Function names.
const (
	FnMap    = "wc-map"
	FnReduce = "wc-reduce"
)

// Doc is one mapper's input: a document shard to count.
type Doc struct {
	ID   string
	Text string
}

// Counts is a mapper's output: per-word occurrences in one document.
type Counts struct {
	DocID string
	Words map[string]int64
}

// Job is the driver's input: the documents to count in one round.
type Job struct {
	Docs []Doc
}

// Summary is the driver's output.
type Summary struct {
	Docs     int64
	Words    int64 // total word occurrences
	Distinct int64 // distinct words
}

// Typed table handles. perDoc keeps each mapper's own result (written by
// the mapper — data sovereignty: only wc-map touches it); totals holds the
// merged counts the driver commits.
var (
	perDoc = beldi.NewTable[Counts]("perdoc")
	totals = beldi.NewTable[map[string]int64]("totals")
)

// App bundles the typed handles of the registered workflow.
type App struct {
	Map    beldi.Func[Doc, Counts]
	Reduce beldi.Func[Job, Summary]
}

// Build registers the mapper and the fan-out driver on d.
func Build(d *beldi.Deployment) *App {
	a := &App{}
	a.Map = beldi.RegisterFunc(d, FnMap, func(e *beldi.Env, doc Doc) (Counts, error) {
		c := Counts{DocID: doc.ID, Words: map[string]int64{}}
		for _, w := range strings.Fields(strings.ToLower(doc.Text)) {
			w = strings.Trim(w, ".,;:!?\"'()")
			if w != "" {
				c.Words[w]++
			}
		}
		if err := perDoc.Put(e, doc.ID, c); err != nil {
			return Counts{}, err
		}
		return c, nil
	}, "perdoc")
	mapFn := a.Map
	a.Reduce = beldi.RegisterFunc(d, FnReduce, func(e *beldi.Env, job Job) (Summary, error) {
		// Fan out: one durable promise per document.
		ps := make([]*beldi.PromiseOf[Counts], len(job.Docs))
		for i, doc := range job.Docs {
			p, err := mapFn.Async(e, doc)
			if err != nil {
				return Summary{}, err
			}
			ps[i] = p
		}
		// Fan in: every await is a logged step, so a crashed-and-replayed
		// reduce observes the identical mapper results.
		results, err := beldi.AwaitAllOf(e, ps...)
		if err != nil {
			return Summary{}, err
		}
		merged := map[string]int64{}
		var s Summary
		for _, c := range results {
			s.Docs++
			for w, n := range c.Words {
				merged[w] += n
				s.Words += n
			}
		}
		s.Distinct = int64(len(merged))
		if err := totals.Put(e, "all", merged); err != nil {
			return Summary{}, err
		}
		return s, nil
	}, "totals")
	return a
}

// Totals reads the committed merged counts (inspection aid for tests and
// examples).
func Totals(d *beldi.Deployment) (map[string]int64, error) {
	v, err := beldi.PeekState(d.Runtime(FnReduce), "totals", "all")
	if err != nil {
		return nil, err
	}
	var out map[string]int64
	if err := beldi.FromValue(v, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// TopWords returns the n most frequent words from the committed totals,
// ties broken alphabetically.
func TopWords(d *beldi.Deployment, n int) ([]string, error) {
	m, err := Totals(d)
	if err != nil {
		return nil, err
	}
	words := make([]string, 0, len(m))
	for w := range m {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if m[words[i]] != m[words[j]] {
			return m[words[i]] > m[words[j]]
		}
		return words[i] < words[j]
	})
	if n > len(words) {
		n = len(words)
	}
	return words[:n], nil
}
