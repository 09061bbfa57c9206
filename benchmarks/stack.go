package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/beldi"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/uuid"
	"repro/internal/walstore"
)

// substrate names the storage plane under a deployment.
type substrate int

const (
	subMemory    substrate = iota // dynamo.NewStore(), zero latency
	subWAL                        // walstore in process
	subRemoteWAL                  // remote.Dial → loopback → remote.NewServer → walstore
)

// Protocol parameters shared by every workload. T is short so the untimed
// collector passes can make every intent of an episode recyclable by
// sleeping a few T; no collector timer runs inside an episode.
var benchConfig = beldi.Config{RowCap: 16, T: 20 * time.Millisecond}

// walPlace is where WAL directories live and how their records are synced.
type walPlace struct {
	root string
	kind string // "tmpfs" or "disk"
	opts walstore.Options
}

// walHome keeps the device out of the timing. WAL directories go on a
// RAM-backed filesystem — /dev/shm, when it is writable with room to spare —
// with batched group commit, so every fsync is issued and counted
// (walstore.fsyncs_per_workflow) but costs no device wait; on this box the
// real disk made the same run 4× slower and its throughput wander by 10 %
// from run to run, which is the disk's latency, not the program's. Without
// such a filesystem the directories go under the working directory and
// fsync is elided (SyncNone), which keeps the timing comparable and zeroes
// the fsync counts; the result records which applied. Auto-compaction is
// off inside an episode: Compact is measured as its own probe.
var walHome = sync.OnceValue(func() walPlace {
	place := walPlace{filepath.Join(".bench_build", "wal"), "disk", walstore.Options{Sync: walstore.SyncNone, AutoCompactBytes: -1}}
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if err := syscall.Statfs(shm, &st); err == nil && uint64(st.Bavail)*uint64(st.Bsize) >= 1<<30 {
		if probe, err := os.MkdirTemp(shm, walDirPrefix+"probe-*"); err == nil {
			os.Remove(probe)
			place = walPlace{shm, "tmpfs", walstore.Options{Sync: walstore.SyncBatched, AutoCompactBytes: -1}}
		}
	}
	// A run that was killed could not remove its directories; no run lasts
	// ten minutes, so anything older is such a leftover.
	if entries, err := os.ReadDir(place.root); err == nil {
		for _, e := range entries {
			info, err := e.Info()
			if err == nil && strings.HasPrefix(e.Name(), walDirPrefix) && time.Since(info.ModTime()) > 10*time.Minute {
				os.RemoveAll(filepath.Join(place.root, e.Name()))
			}
		}
	}
	return place
})

const walDirPrefix = "beldi-bench-"

// stackSpec says what one episode's deployment runs on.
type stackSpec struct {
	sub         substrate
	delay       time.Duration             // injected server delay (subRemoteWAL)
	speculation *beldi.SpeculationOptions // nil = off
	traced      bool
}

// stack is one episode's storage plane and deployment, built fresh and torn
// down after the episode.
type stack struct {
	dir string // WAL directory ("" on memory)

	mem    *dynamo.Store
	wal    *walstore.Store
	srv    *remote.Server
	client *remote.Client

	plat *platform.Platform
	d    *beldi.Deployment
	da   *beldi.DurableAsync // set by programs that run over durable queues

	// Traced wiring only.
	epoch     time.Time
	coreRec   *recorder // seam under core: the Backend given to DeploymentOptions.Store
	serverRec *recorder // seam under remote: the Backend given to remote.NewServer
}

// bottom is the store that finally holds the rows.
func (s *stack) bottom() storage.Backend {
	if s.wal != nil {
		return s.wal
	}
	return s.mem
}

// newStack builds the storage plane and an empty deployment on it.
func newStack(spec stackSpec, seed int64) (*stack, error) {
	s := &stack{epoch: time.Now()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	var top storage.Backend
	switch spec.sub {
	case subMemory:
		s.mem = dynamo.NewStore()
		top = s.mem
	case subWAL, subRemoteWAL:
		home := walHome()
		if err := os.MkdirAll(home.root, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(home.root, walDirPrefix+"*")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		if s.wal, err = walstore.Open(dir, home.opts); err != nil {
			return nil, err
		}
		top = s.wal
	}
	if spec.sub == subRemoteWAL {
		served := top
		if spec.traced {
			s.serverRec = newRecorder(s.epoch)
			served = traceBackend(top, s.serverRec)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.srv = remote.NewServer(served, remote.ServeOptions{Delay: spec.delay})
		go s.srv.Serve(lis) //nolint:errcheck // returns nil after srv.Close
		if s.client, err = remote.Dial(lis.Addr().String(), remote.Options{PoolSize: 2, ClientID: "bench"}); err != nil {
			return nil, err
		}
		top = s.client
	}
	if spec.traced {
		s.coreRec = newRecorder(s.epoch)
		top = traceBackend(top, s.coreRec)
	}

	s.plat = platform.New(platform.Options{Seed: seed, IDs: &uuid.Seq{Prefix: "req"}})
	s.d = beldi.NewDeployment(beldi.DeploymentOptions{
		Store:       top,
		Platform:    s.plat,
		Mode:        beldi.ModeBeldi,
		Config:      benchConfig,
		IDs:         &uuid.Seq{Prefix: "id"},
		Speculation: spec.speculation,
	})
	ok = true
	return s, nil
}

// quiesce waits for everything the timed requests started: asynchronous
// instances, queued messages not yet acknowledged and, with speculation,
// the durability of every write.
func (s *stack) quiesce() error {
	s.plat.Drain()
	if s.da != nil {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			depth, err := s.da.Depth()
			if err != nil {
				return err
			}
			if depth == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%d messages still queued after the episode", depth)
			}
		}
	}
	if p := s.d.Pipeline(); p != nil {
		return p.Fence()
	}
	return nil
}

// tableSizes reports rows and bytes of every table of the bottom store.
func tableSizes(b storage.Backend) (map[string][2]int, error) {
	out := make(map[string][2]int)
	for _, name := range b.TableNames() {
		rows, err := b.TableItemCount(name)
		if err != nil {
			return nil, err
		}
		bytes, err := b.TableBytes(name)
		if err != nil {
			return nil, err
		}
		out[name] = [2]int{rows, bytes}
	}
	return out, nil
}

// stop halts the deployment and the wire, leaving the WAL open: the
// durability check and the WAL probes run on a quiet store.
func (s *stack) stop() {
	if s.d != nil {
		s.d.Stop()
		s.d = nil
	}
	if s.client != nil {
		s.client.Close()
		s.client = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

// reopenCheck closes the WAL, recovers it from its directory and verifies
// that every table came back with the rows and bytes it had — the
// durability half of the correctness gate. The recovered store replaces
// s.wal. Returns the recovery time and the records replayed.
func (s *stack) reopenCheck() (time.Duration, int64, error) {
	before, err := tableSizes(s.wal)
	if err != nil {
		return 0, 0, err
	}
	if err := s.wal.Close(); err != nil {
		return 0, 0, fmt.Errorf("closing WAL: %w", err)
	}
	t0 := time.Now()
	s.wal, err = walstore.Open(s.dir, walHome().opts)
	took := time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("recovering WAL: %w", err)
	}
	after, err := tableSizes(s.wal)
	if err != nil {
		return 0, 0, err
	}
	if len(after) != len(before) {
		return 0, 0, fmt.Errorf("WAL recovery: %d tables, had %d", len(after), len(before))
	}
	for name, want := range before {
		if got := after[name]; got != want {
			return 0, 0, fmt.Errorf("WAL recovery: table %s has rows/bytes %v, had %v", name, got, want)
		}
	}
	return took, s.wal.WAL().RecoveredRecords.Load(), nil
}

// close tears everything down and removes the WAL directory.
func (s *stack) close() {
	s.stop()
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}
