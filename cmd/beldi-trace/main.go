// Command beldi-trace renders the causal trace of a Beldi workflow — every
// execution attempt, logged step, call edge and queue hop of an intent tree,
// with replayed operations and crashed attempts marked — from either a live
// deployment's telemetry endpoint or the durable state in a WAL directory.
//
// Usage:
//
//	beldi-trace -addr 127.0.0.1:6060             # list roots on a live deployment
//	beldi-trace -addr 127.0.0.1:6060 -root ID    # render one trace
//	beldi-trace -addr 127.0.0.1:6060 -all        # render every trace
//	beldi-trace -wal ./data                      # list roots from durable state
//	beldi-trace -wal ./data -root ID             # render one trace from durable state
//	beldi-trace -wal ./data -all                 # render every trace
//
// Live traces come from the in-process tracer (telemetry.Serve's /traces and
// /trace endpoints) and carry full step detail. Durable traces are
// reconstructed from the intent and invoke-log tables a crashed deployment
// left behind, so they show the workflow's call tree and completion state —
// what an operator needs to answer "which workflows were in flight, and how
// far did they get?" after an outage — without needing the process that died.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/walstore"
)

func main() {
	var (
		addr = flag.String("addr", "", "telemetry endpoint of a live deployment (host:port)")
		wal  = flag.String("wal", "", "WAL directory of a (possibly crashed) durable deployment")
		root = flag.String("root", "", "root intent id to render; empty lists roots")
		all  = flag.Bool("all", false, "render every trace instead of listing roots")
	)
	flag.Parse()
	if (*addr == "") == (*wal == "") {
		fmt.Fprintln(os.Stderr, "beldi-trace: exactly one of -addr or -wal is required")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *addr != "" {
		err = fromLive(*addr, *root, *all)
	} else {
		err = fromWAL(*wal, *root, *all, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "beldi-trace:", err)
		os.Exit(1)
	}
}

// fromLive proxies the deployment's own endpoint: the tracer lives in the
// serving process, so rendering happens there and we just print it.
func fromLive(addr string, root string, all bool) error {
	if root != "" {
		return fetch("http://"+addr+"/trace?format=text&root="+url.QueryEscape(root), os.Stdout)
	}
	if !all {
		fmt.Println("roots (pass -root ID or -all to render):")
		return fetch("http://"+addr+"/traces", os.Stdout)
	}
	var buf bytes.Buffer
	if err := fetch("http://"+addr+"/traces", &buf); err != nil {
		return err
	}
	var roots []string
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &roots); err != nil {
		return fmt.Errorf("parsing /traces: %w", err)
	}
	sort.Strings(roots)
	for _, r := range roots {
		if err := fetch("http://"+addr+"/trace?format=text&root="+url.QueryEscape(r), os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func fetch(url string, w io.Writer) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	_, err = io.Copy(w, resp.Body)
	fmt.Fprintln(w)
	return err
}

// fromWAL recovers the store from dir (read path only; nothing is appended),
// reconstructs traces from the intent and invoke-log tables and writes them
// to w.
func fromWAL(dir, root string, all bool, w io.Writer) error {
	st, err := walstore.Open(dir, walstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	spans, err := core.DurableSpans(st)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		fmt.Fprintln(w, "no intents recorded")
		return nil
	}
	roots := telemetry.Roots(spans)
	if root != "" {
		roots = []string{root}
	} else if !all {
		fmt.Fprintf(w, "%d roots (pass -root ID or -all to render):\n", len(roots))
		sort.Strings(roots)
		for _, r := range roots {
			fmt.Fprintln(w, " ", r)
		}
		return nil
	}
	for _, r := range roots {
		tr := telemetry.Assemble(spans, r)
		if len(tr.Spans) == 0 {
			return fmt.Errorf("no spans for root %s", r)
		}
		tr.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}
