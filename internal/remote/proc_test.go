package remote_test

// Process-level recovery test: real worker OS processes against an in-test
// storage server, with a real SIGKILL mid-load. This is the acceptance test
// for the paper's core claim carried across the network seam — workers and
// the store fail independently, and exactly-once survives a worker dying
// without cleanup because every guarantee rides on conditional writes that
// round-trip the wire exactly.
//
// The test binary re-execs itself as the workers (TestMain checks
// BELDI_REMOTE_PROC_WORKER), so the workers run the same compiled code but
// share nothing with the test process except the TCP connection to the
// storage server.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/beldi"
	"repro/internal/apps/counterdemo"
	"repro/internal/platform"
	"repro/internal/remote"
	"repro/internal/walstore"
)

var procConfig = beldi.Config{T: 300 * time.Millisecond, ICMinAge: 10 * time.Millisecond}

var procDurable = beldi.DurableAsyncOptions{}

func TestMain(m *testing.M) {
	if os.Getenv("BELDI_REMOTE_PROC_WORKER") == "1" {
		procWorkerMain()
		return
	}
	os.Exit(m.Run())
}

// procWorkerMain is the re-exec'd worker process: dial the store, join the
// pool, announce readiness, serve until killed. It also exits if its stdin
// closes, so workers never outlive a crashed test run.
func procWorkerMain() {
	addr := os.Getenv("BELDI_REMOTE_STORE_ADDR")
	id := os.Getenv("BELDI_REMOTE_WORKER_ID")
	client, err := remote.Dial(addr, remote.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: %v\n", id, err)
		os.Exit(1)
	}
	c := beldi.MustOpenCluster(beldi.ClusterOptions{
		Store:        client,
		LeaseTTL:     500 * time.Millisecond,
		Config:       procConfig,
		DurableAsync: &procDurable,
	})
	w, err := c.JoinCluster(id, counterdemo.Register)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: %v\n", id, err)
		os.Exit(1)
	}
	w.Start()
	fmt.Printf("READY %s\n", id)
	buf := make([]byte, 1)
	os.Stdin.Read(buf) // EOF when the test process dies
	os.Exit(0)
}

// startWorkerProc re-execs the test binary as a worker and waits for its
// READY line.
func startWorkerProc(t *testing.T, addr, id string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"BELDI_REMOTE_PROC_WORKER=1",
		"BELDI_REMOTE_STORE_ADDR="+addr,
		"BELDI_REMOTE_WORKER_ID="+id,
	)
	stdin, err := cmd.StdinPipe() // held open; closes if the test dies
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
	})
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			t.Logf("[%s] %s", id, sc.Text())
		}
	}()
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "READY ") {
				ready <- sc.Text()
				break
			}
		}
		close(ready)
		for sc.Scan() {
		}
	}()
	select {
	case line, ok := <-ready:
		if !ok {
			t.Fatalf("worker %s exited before READY", id)
		}
		t.Logf("%s (pid %d)", line, cmd.Process.Pid)
	case <-time.After(30 * time.Second):
		t.Fatalf("worker %s did not become ready", id)
	}
	return cmd
}

// TestWorkerSIGKILLRecovery: two worker processes launch durable counter
// intents from a shared remote store; one is SIGKILLed mid-load; the
// survivor detects the silent lease, steals the dead worker's partitions
// and relaunches their pending intents — every counter lands at exactly 1.
func TestWorkerSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}

	// Storage plane: walstore behind a wire server, in this process.
	dir := t.TempDir()
	ws, err := walstore.Open(dir, walstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(ws, remote.ServeOptions{})
	go srv.Serve(lis)
	t.Cleanup(func() {
		srv.Close()
		ws.Close()
	})
	addr := lis.Addr().String()

	// Gateway deployment: registers counter intents through ingest and
	// executes none (its platform drops each in-process fire, and it runs
	// no collectors — the worker processes own all execution).
	client, err := remote.Dial(addr, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	d := beldi.NewDeployment(beldi.DeploymentOptions{
		Store:    client,
		Platform: platform.New(platform.Options{AsyncDispatch: counterdemo.DropFires}),
		Config:   procConfig,
	})
	counterdemo.Register(d)
	d.EnableDurableAsync(procDurable)

	// Compute plane: two real worker OS processes.
	w0 := startWorkerProc(t, addr, "w0")
	w1 := startWorkerProc(t, addr, "w1")
	_ = w0

	const requests = 12
	for i := 0; i < requests; i++ {
		if i == requests/2 {
			// SIGKILL w1 while intents are still pending: no deferred
			// cleanup, no lease release — the failure mode the pool exists
			// to absorb.
			if err := w1.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			go w1.Wait()
			t.Logf("SIGKILL sent to w1 (pid %d) mid-load", w1.Process.Pid)
		}
		if _, err := d.Invoke(counterdemo.FnIngest, counterdemo.Request(i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(60 * time.Second)
	probe := d.Runtime(counterdemo.FnCounter)
	for {
		exact, dup := 0, 0
		for i := 0; i < requests; i++ {
			v, err := beldi.PeekState(probe, counterdemo.StateTable, counterdemo.Key(i))
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case v.Int() == 1:
				exact++
			case v.Int() > 1:
				dup++
			}
		}
		if dup > 0 {
			t.Fatalf("duplicated executions: %d counters above 1", dup)
		}
		if exact == requests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery did not converge: %d/%d counters at exactly 1", exact, requests)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("all %d counters at exactly 1 after SIGKILL; orchestrator stats: %+v",
		requests, client.Stats().Snapshot())
}
