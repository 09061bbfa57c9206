package codec_test

// Ownership is tested, not assumed: every test here runs with codec.Poison
// on, so each released frame body and encoder buffer is overwritten with 0xDB
// the moment its owner lets go of it. A value, an error message or a frame
// that still aliased one of them reads back as garbage and fails a check
// below. The tests live here, not in internal/remote or internal/walstore,
// because the poison switch is an unexported variable of this package, not an
// option: only this package's tests can reach it. CI runs them under -race in
// the remote and walstore steps.

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/storage/codec"
	"repro/internal/storage/storagetest"
	"repro/internal/walstore"
)

// serve puts backend behind a wire server on a loopback listener and returns
// a client of it.
func serve(t *testing.T, backend storage.Backend, opts remote.Options) *remote.Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(backend, remote.ServeOptions{})
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	c, err := remote.Dial(lis.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestOwnershipConformance: the whole backend conformance suite through
// client → wire → server → walstore, every buffer poisoned at its release.
func TestOwnershipConformance(t *testing.T) {
	codec.Poison(t)
	storagetest.Run(t, storagetest.OpenRemote)
}

// same reports whether two rows hold equal values under equal names.
func same(a, b storage.Item) bool { return dynamo.M(a).Equal(dynamo.M(b)) }

// ownRow is the row goroutine g writes at step i; every field is derived from
// (g, i), so a reader can tell its own result from anybody else's.
func ownRow(g, i int) storage.Item {
	return storage.Item{
		"K":     dynamo.S(fmt.Sprintf("g-%d", g)),
		"S":     dynamo.NInt(int64(i)),
		"V":     dynamo.S(fmt.Sprintf("value-%d-%d", g, i)),
		"Blob":  dynamo.Bytes([]byte(fmt.Sprintf("blob-%d-%d", g, i))),
		"Log":   dynamo.M(map[string]dynamo.Value{fmt.Sprintf("step-%d", i): dynamo.S(fmt.Sprintf("logged-%d-%d", g, i))}),
		"Count": dynamo.NInt(0),
	}
}

// TestOwnershipPipelinedMixedOps: 64 goroutines pipeline 200 mixed calls each
// over two connections, so request frames, response bodies, encoders and
// waiters are recycled between calls in flight at once — and every value and
// error that comes back is checked against what its own call must return.
func TestOwnershipPipelinedMixedOps(t *testing.T) {
	codec.Poison(t)
	c := serve(t, dynamo.NewStore(), remote.Options{PoolSize: 2})
	if err := c.CreateTable(storage.Schema{Name: "t", HashKey: "K", SortKey: "S"}); err != nil {
		t.Fatal(err)
	}
	const goroutines, ops = 64, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hash, rows := dynamo.S(fmt.Sprintf("g-%d", g)), 0
			for i := 0; i < ops; i++ {
				last := dynamo.HSK(hash, dynamo.NInt(int64(rows-1)))
				var err error
				switch {
				case i%5 == 0: // Put a new row
					err = c.Put("t", ownRow(g, rows), nil)
					rows++
				case i%5 == 1: // Get it back whole
					var it storage.Item
					var ok bool
					if it, ok, err = c.Get("t", last); err == nil && (!ok || !same(it, ownRow(g, rows-1))) {
						err = fmt.Errorf("Get = %v, %v", it, ok)
					}
				case i%5 == 2: // Update under a condition that holds
					err = c.Update("t", last, dynamo.Eq(dynamo.A("V"), dynamo.S(fmt.Sprintf("value-%d-%d", g, rows-1))),
						dynamo.Add(dynamo.A("Count"), 1))
				case i%5 == 3: // a refused write: the error's identity and text cross the wire
					err = c.Put("t", ownRow(g, rows-1), dynamo.NotExists(dynamo.A("K")))
					if !errors.Is(err, storage.ErrConditionFailed) || strings.ContainsRune(err.Error(), 0xDB) || !strings.Contains(err.Error(), "condition") {
						err = fmt.Errorf("refused Put = %v", err)
					} else {
						err = nil
					}
				default: // Query the partition, projected
					var got []storage.Item
					got, err = c.Query("t", hash, storage.QueryOpts{Projection: []storage.Path{dynamo.A("S"), dynamo.A("V"), dynamo.A("Count")}})
					if err == nil && len(got) != rows {
						err = fmt.Errorf("Query = %d rows, want %d", len(got), rows)
					}
					for j, it := range got {
						want := storage.Item{"S": dynamo.NInt(int64(j)), "V": dynamo.S(fmt.Sprintf("value-%d-%d", g, j)), "Count": dynamo.NInt(1)}
						if err == nil && !same(it, want) {
							err = fmt.Errorf("Query row %d = %v", j, it)
						}
					}
				}
				if err != nil {
					t.Errorf("goroutine %d op %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// slowEveryThird is a backend whose every third Get takes 60 ms.
type slowEveryThird struct {
	storage.Backend
	gets, returned atomic.Int64
}

func (s *slowEveryThird) Get(table string, key storage.Key) (storage.Item, bool, error) {
	defer s.returned.Add(1)
	if s.gets.Add(1)%3 == 0 {
		time.Sleep(60 * time.Millisecond)
	}
	return s.Backend.Get(table, key)
}

// TestOwnershipLateReplies is the channel-reuse hazard of the waiter pool: a
// third of the requests are answered 60 ms late by a server whose client gives
// up after 20 ms, so their replies arrive on the shared connection long after
// the attempt they belong to is gone — while later calls are waiting on
// recycled channels. Every call that succeeds must return its own row, never
// a late reply to someone else's request.
func TestOwnershipLateReplies(t *testing.T) {
	codec.Poison(t)
	store := dynamo.NewStore()
	slow := &slowEveryThird{Backend: store}
	c := serve(t, slow, remote.Options{PoolSize: 1, OpTimeout: 20 * time.Millisecond, Retries: -1})
	if err := c.CreateTable(storage.Schema{Name: "t", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	const goroutines, gets = 4, 60
	for k := 0; k < goroutines*gets; k++ {
		if err := store.Put("t", storage.Item{"K": dynamo.NInt(int64(k)), "V": dynamo.S(fmt.Sprintf("value-%d", k))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g * gets; k < (g+1)*gets; k++ {
				it, ok, err := c.Get("t", dynamo.HK(dynamo.NInt(int64(k))))
				if errors.Is(err, remote.ErrUnavailable) {
					continue // timed out: its reply is still on its way
				}
				want := storage.Item{"K": dynamo.NInt(int64(k)), "V": dynamo.S(fmt.Sprintf("value-%d", k))}
				if err != nil || !ok || !same(it, want) {
					t.Errorf("Get(%d) = %v, %v, %v", k, it, ok, err)
				}
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	stats := c.Stats().Snapshot()
	if stats.Timeouts == 0 || served.Load() == 0 {
		t.Errorf("%d timeouts, %d calls served: the test needs both", stats.Timeouts, served.Load())
	}
	// Once the server has answered the last straggler, the connection those
	// replies were dropped from serves on.
	for deadline := time.Now().Add(10 * time.Second); slow.returned.Load() < goroutines*gets; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server answered %d of %d requests", slow.returned.Load(), goroutines*gets)
		}
	}
	var names []string // nil when the call timed out: 20 ms is short on a loaded box
	for try := 0; try < 100 && names == nil; try++ {
		names = c.TableNames()
	}
	if len(names) != 1 || names[0] != "t" {
		t.Errorf("TableNames after the late replies = %v", names)
	}
}

// TestOwnershipWALWriteMustCopy is the rule in walstore.File.Write's doc,
// for the one case the crash matrix cannot show without the poison: a File
// that kept the LAST frame it was handed. No later record overwrites it,
// but the buffer went back to its owner all the same.
func TestOwnershipWALWriteMustCopy(t *testing.T) {
	codec.Poison(t)
	keep := &keepFS{FS: walstore.OS}
	s, err := walstore.Open(t.TempDir(), walstore.Options{FS: keep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateTable(dynamo.Schema{Name: "c", HashKey: "K"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := codec.NextFrame(keep.copied, 0); err != nil {
		t.Fatalf("the copied frame is damaged: %v", err)
	}
	if _, _, err := codec.NextFrame(keep.kept, 0); err == nil {
		t.Error("a frame retained past File.Write is still whole: the record buffer is not released at the append")
	}
}

// keepFS's files keep the last bytes they were handed, and a copy of them.
type keepFS struct {
	walstore.FS
	kept, copied []byte
}

func (k *keepFS) OpenFile(name string, flag int, perm fs.FileMode) (walstore.File, error) {
	f, err := k.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return keepFile{f, k}, nil
}

type keepFile struct {
	walstore.File
	k *keepFS
}

func (f keepFile) Write(p []byte) (int, error) {
	f.k.kept, f.k.copied = p, append([]byte(nil), p...)
	return f.File.Write(p)
}
