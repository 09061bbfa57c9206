// Cluster: one storage server, three worker OS processes, one SIGKILL.
//
// This demo is the paper's deployment shape as real processes. It re-execs
// itself into a small fleet:
//
//   - one storaged process — a durable walstore served over the
//     internal/remote wire protocol (the data plane; what the paper runs on
//     DynamoDB),
//   - three worker processes — each dials the storage server, joins the
//     cluster pool, and collects the intents of the partitions it owns
//     (the compute plane; `beldi-demo -worker` is the standalone spelling),
//   - and the orchestrator (this process), which registers 40 counter
//     workflows through an "ingest" SSF and then kills worker w1 with
//     SIGKILL — a real kill -9 on a real pid, mid-load.
//
// No process shares memory with any other; every byte of coordination
// (leases, intents, locks) crosses TCP. The survivors' failure detectors
// notice w1's silent lease, steal its partitions, and relaunch its pending
// intents — after which the audit reads every one of the 40 counters
// through the wire and finds each at exactly 1: nothing lost to the kill,
// nothing duplicated by the recovery.
//
//	go run ./examples/cluster
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/beldi"
	"repro/internal/apps/counterdemo"
	"repro/internal/platform"
	"repro/internal/remote"
	"repro/internal/walstore"
)

const (
	workers  = 3
	requests = 40
	leaseTTL = 500 * time.Millisecond
)

var protocolConfig = beldi.Config{T: 300 * time.Millisecond, ICMinAge: 10 * time.Millisecond}

var durableOpts = beldi.DurableAsyncOptions{PollInterval: 20 * time.Millisecond}

func main() {
	role := flag.String("role", "", "internal: storaged | worker (set by re-exec)")
	dir := flag.String("dir", "", "storaged data directory")
	store := flag.String("store", "", "storaged address (worker role)")
	id := flag.String("id", "", "worker id")
	flag.Parse()
	switch *role {
	case "storaged":
		runStoraged(*dir)
	case "worker":
		runWorker(*store, *id)
	default:
		orchestrate()
	}
}

// runStoraged is the data plane: a walstore served over the wire protocol.
// (cmd/beldi-storaged is the full-featured standalone version.)
func runStoraged(dir string) {
	st, err := walstore.Open(dir, walstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LISTEN %s\n", lis.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	srv := remote.NewServer(st, remote.ServeOptions{})
	go srv.Serve(lis)
	<-sig
	srv.Close()
	st.Close()
}

// runWorker is the compute plane: dial the storage server, join the pool,
// serve until killed.
func runWorker(storeAddr, id string) {
	client, err := remote.Dial(storeAddr, remote.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store:        client,
		LeaseTTL:     leaseTTL,
		Config:       protocolConfig,
		DurableAsync: &durableOpts,
	})
	w, err := c.JoinCluster(id, counterdemo.Register)
	if err != nil {
		log.Fatal(err)
	}
	w.Start()
	fmt.Printf("READY %s pid=%d\n", w.Worker().ID(), os.Getpid())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	w.Leave()
}

// spawn re-execs this binary in a role and returns the command plus a
// scanner over its stdout; stderr is passed through with a pid prefix.
func spawn(tag string, args ...string) (*exec.Cmd, *bufio.Scanner) {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	cmd.Stderr = prefixWriter(tag)
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	return cmd, bufio.NewScanner(out)
}

// prefixWriter labels a child's stderr lines.
func prefixWriter(tag string) io.Writer {
	pr, pw, _ := os.Pipe()
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			fmt.Printf("  [%s] %s\n", tag, sc.Text())
		}
	}()
	return pw
}

// await scans a child's stdout until a line starts with prefix, echoing
// everything else.
func await(sc *bufio.Scanner, prefix string) string {
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, prefix) {
			return line
		}
		fmt.Printf("  %s\n", line)
	}
	log.Fatalf("child exited before printing %q", prefix)
	return ""
}

func orchestrate() {
	dir, err := os.MkdirTemp("", "beldi-cluster-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Data plane first: one storage server process over a durable walstore.
	storaged, storagedOut := spawn("storaged", "-role", "storaged", "-dir", dir)
	defer storaged.Process.Kill()
	addr := strings.TrimPrefix(await(storagedOut, "LISTEN "), "LISTEN ")
	go func() { // drain remaining stdout
		for storagedOut.Scan() {
		}
	}()
	fmt.Printf("== storage plane ==\n  storaged pid=%d addr=%s dir=%s\n", storaged.Process.Pid, addr, dir)

	// Compute plane: three worker processes join the pool over the wire.
	fmt.Println("\n== compute plane ==")
	procs := make([]*exec.Cmd, workers)
	for i := 0; i < workers; i++ {
		id := fmt.Sprintf("w%d", i)
		cmd, out := spawn(id, "-role", "worker", "-store", addr, "-id", id)
		procs[i] = cmd
		fmt.Printf("  %s\n", await(out, "READY "))
		go func() {
			for out.Scan() {
			}
		}()
	}

	// The orchestrator is a gateway, not a pool member: a deployment over
	// the same remote store whose only job is running "ingest", which
	// registers the counter's intent durably. It runs no counter — its
	// platform drops each in-process fire — and starts no collectors: the workers' collectors launch every
	// counter.
	client, err := remote.Dial(addr, remote.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    client,
		Platform: platform.New(platform.Options{AsyncDispatch: counterdemo.DropFires}),
		Config:   protocolConfig,
	})
	counterdemo.Register(d)
	d.EnableDurableAsync(durableOpts)

	fmt.Printf("\ndriving %d workflows through ingest; kill -9 on w1 midway...\n", requests)
	for i := 0; i < requests; i++ {
		if i == requests/2 {
			if err := procs[1].Process.Signal(syscall.SIGKILL); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  >> SIGKILL sent to w1 (pid %d) — no cleanup, no goodbye\n", procs[1].Process.Pid)
		}
		if _, err := d.Invoke(counterdemo.FnIngest, counterdemo.Request(i)); err != nil {
			log.Fatalf("ingest %d: %v", i, err)
		}
	}
	go procs[1].Wait() // reap the corpse

	// Convergence: every counter at exactly 1, observed through the wire.
	fmt.Println("\nwaiting for the survivors to detect, steal, redeliver, and finish...")
	probe := d.Runtime(counterdemo.FnCounter)
	deadline := time.Now().Add(30 * time.Second)
	for {
		exact := 0
		for i := 0; i < requests; i++ {
			v, err := beldi.PeekState(probe, counterdemo.StateTable, counterdemo.Key(i))
			if err != nil {
				log.Fatal(err)
			}
			if v.Int() == 1 {
				exact++
			}
		}
		if exact == requests {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("recovery did not converge: %d/%d counters at exactly 1", exact, requests)
		}
		time.Sleep(50 * time.Millisecond)
	}

	fmt.Println("\n== after recovery ==")
	stats := client.Stats().Snapshot()
	fmt.Printf("  orchestrator wire traffic: %d RPCs, %d retries, %d reconnects, p99 %v\n",
		stats.RPCs, stats.Retries, stats.Reconnects, client.RPCLatency().P99().Round(10*time.Microsecond))
	if sm, err := client.ServerMetrics(); err == nil {
		fmt.Printf("  storage server: %d ops total (%d conditional failures) across all processes\n",
			sm.TotalOps(), sm.CondFailures)
	}
	fmt.Printf("  all %d counters at exactly 1: exactly-once survived kill -9 across the network seam\n", requests)

	// Graceful teardown of the survivors and the storage server.
	for i, p := range procs {
		if i == 1 {
			continue
		}
		p.Process.Signal(syscall.SIGTERM)
		p.Wait()
	}
	storaged.Process.Signal(syscall.SIGTERM)
	storaged.Wait()
}
