package codec_test

// Format fixtures: bytes written by the commit BEFORE this package existed,
// checked against what this build reads and writes. testdata/wal is a WAL
// directory (a segment holding every record type and op kind, a snapshot,
// and a tail), testdata/wal.contents.txt the table contents it held when it
// was closed, and testdata/wire.txt one client↔server conversation (every
// opcode, a canceled transaction, a watch event).
//
// This file uses only the exported API of walstore and remote, so the same
// file runs in a checkout of an older commit:
//
//	go test ./internal/storage/codec -run Fixture -update
//
// regenerates testdata/ THERE. Never regenerate at HEAD to make a test pass:
// a fixture diff means the format changed, which needs a remote.Version bump
// and a WAL migration story, not new fixtures.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamo"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/walstore"
)

var update = flag.Bool("update", false, "rewrite testdata/ from this build (older commits only; see fixture_test.go)")

func fixtureSchema() dynamo.Schema {
	return dynamo.Schema{
		Name: "users", HashKey: "Id", SortKey: "Rev", MaxItemSize: 1024, Shards: 4,
		Indexes: []dynamo.IndexSchema{{Name: "by-team", HashKey: "Team", SortKey: "Rank"}},
	}
}

func userRow(id string, rev int64) dynamo.Item {
	return dynamo.Item{
		"Id": dynamo.S(id), "Rev": dynamo.NInt(rev), "N": dynamo.NInt(10 * rev),
		"Team": dynamo.S("t"), "Rank": dynamo.NInt(rev),
	}
}

// kindsRow carries every value kind, nested both ways.
func kindsRow() dynamo.Item {
	return dynamo.Item{
		"Id": dynamo.S("kinds"), "Rev": dynamo.NInt(0),
		"Null": dynamo.Null, "Str": dynamo.S("héllo"), "Num": dynamo.N(-3.25),
		"Big": dynamo.NInt(1 << 50), "Yes": dynamo.Bool(true), "No": dynamo.Bool(false),
		"Bytes": dynamo.Bytes([]byte{0, 1, 2, 255}),
		"List":  dynamo.L(dynamo.S("a"), dynamo.NInt(2), dynamo.L(), dynamo.Null),
		"Map": dynamo.M(map[string]dynamo.Value{
			"z": dynamo.NInt(1),
			"a": dynamo.M(map[string]dynamo.Value{"x": dynamo.Null, "l": dynamo.L(dynamo.Bool(true))}),
		}),
	}
}

func userKey(id string, rev int64) dynamo.Key { return dynamo.HSK(dynamo.S(id), dynamo.NInt(rev)) }

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// dump renders every table of b — schema, then rows in scan order — as text.
func dump(t *testing.T, b storage.Backend) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range b.TableNames() {
		sch, err := b.TableSchema(name)
		must(t, err)
		fmt.Fprintf(&sb, "table %s hash=%s sort=%s max=%d shards=%d indexes=%v\n",
			sch.Name, sch.HashKey, sch.SortKey, sch.MaxItemSize, sch.Shards, sch.Indexes)
		rows, err := b.Scan(name, dynamo.QueryOpts{})
		must(t, err)
		for _, it := range rows {
			fmt.Fprintf(&sb, "  %s\n", it)
		}
	}
	return sb.String()
}

// --- WAL directory ---

// writeWAL runs the fixture traffic against a fresh store in dir and returns
// the table contents at close. The first segment — every record type and op
// kind — is put back after compaction deleted it, the state a crash between
// the snapshot's rename and the segment sweep leaves, so the directory holds
// a fully covered segment, a snapshot and a live tail.
func writeWAL(t *testing.T, dir string) string {
	t.Helper()
	s, err := walstore.Open(dir, walstore.Options{})
	must(t, err)
	must(t, s.CreateTable(fixtureSchema()))
	must(t, s.CreateTable(dynamo.Schema{Name: "tmp", HashKey: "K"}))
	for rev := int64(0); rev < 3; rev++ {
		must(t, s.Put("users", userRow("u1", rev), nil))
	}
	must(t, s.Put("users", kindsRow(), dynamo.NotExists(dynamo.A("Id"))))
	must(t, s.Update("users", userKey("u1", 0), dynamo.Exists(dynamo.A("Id")),
		dynamo.Set(dynamo.A("N"), dynamo.NInt(99)), dynamo.Add(dynamo.A("Rank"), 2),
		dynamo.Set(dynamo.AK("Tags", "k"), dynamo.S("v")), dynamo.Remove(dynamo.A("Team"))))
	must(t, s.Delete("users", userKey("u1", 1), nil))
	must(t, s.TransactWrite([]dynamo.TxOp{
		{Table: "users", Put: userRow("u2", 0)},
		{Table: "users", Key: userKey("u1", 2), Updates: []dynamo.Update{dynamo.Add(dynamo.A("N"), -0.5)}},
		{Table: "tmp", Key: dynamo.HK(dynamo.S("gone")), Delete: true},
		{Table: "users", Key: userKey("u1", 0), Cond: dynamo.Exists(dynamo.A("Id")), Check: true},
	}))
	must(t, s.DeleteTable("tmp"))

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	must(t, err)
	if len(segs) != 1 {
		t.Fatalf("segments before compaction: %v", segs)
	}
	first, err := os.ReadFile(segs[0])
	must(t, err)

	must(t, s.Compact())
	must(t, s.Put("users", userRow("u3", 7), nil))
	must(t, s.Update("users", userKey("u3", 7), nil, dynamo.Add(dynamo.A("N"), 1)))
	contents := dump(t, s)
	must(t, s.Close())
	must(t, os.WriteFile(segs[0], first, 0o644))
	return contents
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	must(t, err)
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		must(t, err)
		files[e.Name()] = data
	}
	return files
}

func TestWALFixture(t *testing.T) {
	const fixDir, fixContents = "testdata/wal", "testdata/wal.contents.txt"
	dir := t.TempDir()
	contents := writeWAL(t, dir)
	written := readDir(t, dir)
	if *update {
		must(t, os.RemoveAll(fixDir))
		must(t, os.MkdirAll(fixDir, 0o755))
		for name, data := range written {
			must(t, os.WriteFile(filepath.Join(fixDir, name), data, 0o644))
		}
		must(t, os.WriteFile(fixContents, []byte(contents), 0o644))
		return
	}

	// The same traffic writes the same files, byte for byte.
	fixture := readDir(t, fixDir)
	for name, want := range fixture {
		if got, ok := written[name]; !ok {
			t.Errorf("%s: in the fixture, not written by this build", name)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: this build writes different bytes\n got %x\nwant %x", name, got, want)
		}
	}
	if len(written) != len(fixture) {
		t.Errorf("this build wrote %d files, the fixture has %d", len(written), len(fixture))
	}

	// The fixture's bytes reopen to the contents they were closed with. Open
	// repairs what it finds, so it only ever sees a copy.
	want, err := os.ReadFile(fixContents)
	must(t, err)
	cp := t.TempDir()
	for name, data := range fixture {
		must(t, os.WriteFile(filepath.Join(cp, name), data, 0o644))
	}
	if err := walstore.Fsck(cp); err != nil {
		t.Errorf("fsck of the fixture: %v", err)
	}
	s, err := walstore.Open(cp, walstore.Options{})
	must(t, err)
	defer s.Close()
	if got := dump(t, s); got != string(want) {
		t.Errorf("fixture reopened to different contents\n got:\n%s\nwant:\n%s", got, want)
	}
	if n := s.WAL().TruncatedBytes.Load(); n != 0 {
		t.Errorf("Open discarded %d bytes of the fixture as corrupt", n)
	}
}

// --- wire conversation ---

// tap records, server side, the bytes of the one connection it accepts:
// what the server read as one stream, what it wrote as the frames it wrote.
type tap struct {
	net.Listener
	mu  sync.Mutex
	in  []byte
	out []byte
}

type tapConn struct {
	net.Conn
	t *tap
}

func (t *tap) Accept() (net.Conn, error) {
	c, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{c, t}, nil
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.mu.Lock()
	c.t.in = append(c.t.in, p[:n]...)
	c.t.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.t.mu.Lock()
	c.t.out = append(c.t.out, p...)
	c.t.mu.Unlock()
	return c.Conn.Write(p)
}

// drain returns, as frames, what crossed the connection since the last call.
func (t *tap) drain(tt *testing.T) (in, out [][]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	in, out = splitFrames(tt, t.in), splitFrames(tt, t.out)
	t.in, t.out = nil, nil
	return in, out
}

// splitFrames cuts a byte stream at its [u32 length][u32 crc] headers.
func splitFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(b) > 0 {
		if len(b) < 8 || len(b) < 8+int(binary.LittleEndian.Uint32(b)) {
			t.Fatalf("partial frame on the wire at a step boundary: %x", b)
		}
		n := 8 + int(binary.LittleEndian.Uint32(b))
		frames = append(frames, b[:n])
		b = b[n:]
	}
	return frames
}

func readFrame(r io.Reader) ([]byte, error) {
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	frame := append(hdr, make([]byte, binary.LittleEndian.Uint32(hdr))...)
	_, err := io.ReadFull(r, frame[8:])
	return frame, err
}

// step is one exchange of the conversation: the frames the client sent and
// the frames the server answered with. A watch event races the reply to the
// write that caused it, so within a step replies are kept sorted by body —
// which starts with the request (or watch) id.
type step struct {
	name     string
	sent     [][]byte
	received [][]byte
}

func sortFrames(fs [][]byte) {
	sort.Slice(fs, func(i, j int) bool { return bytes.Compare(fs[i][8:], fs[j][8:]) < 0 })
}

func formatSteps(steps []step) string {
	var sb strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&sb, "# %s\n", s.name)
		for _, f := range s.sent {
			fmt.Fprintf(&sb, "> %x\n", f)
		}
		for _, f := range s.received {
			fmt.Fprintf(&sb, "< %x\n", f)
		}
	}
	return sb.String()
}

func parseSteps(t *testing.T, text string) []step {
	t.Helper()
	var steps []step
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# "); ok {
			steps = append(steps, step{name: name})
			continue
		}
		frame, err := hex.DecodeString(line[2:])
		must(t, err)
		cur := &steps[len(steps)-1]
		if line[0] == '>' {
			cur.sent = append(cur.sent, frame)
		} else {
			cur.received = append(cur.received, frame)
		}
	}
	must(t, sc.Err())
	return steps
}

func serveTapped(t *testing.T) (*tap, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
	tp := &tap{Listener: lis}
	srv := remote.NewServer(dynamo.NewStore(), remote.ServeOptions{})
	go srv.Serve(tp)
	t.Cleanup(func() { srv.Close() })
	return tp, lis.Addr().String()
}

// recordWire drives one client through every opcode against a fresh server
// and returns the conversation.
func recordWire(t *testing.T) []step {
	t.Helper()
	tp, addr := serveTapped(t)
	var steps []step
	var c *remote.Client
	var sub storage.Subscription
	do := func(name string, fn func()) {
		t.Helper()
		fn()
		in, out := tp.drain(t)
		sortFrames(out)
		steps = append(steps, step{name, in, out})
	}
	wantErr := func(err, target error) {
		t.Helper()
		if !errors.Is(err, target) {
			t.Fatalf("got %v, want %v", err, target)
		}
	}
	users := fixtureSchema()

	do("handshake + ping", func() {
		var err error
		c, err = remote.Dial(addr, remote.Options{PoolSize: 1, ClientID: "fixture"})
		must(t, err)
	})
	defer c.Close()
	do("create_table", func() { must(t, c.CreateTable(users)) })
	do("create_table: exists", func() { wantErr(c.CreateTable(users), storage.ErrTableExists) })
	do("create_table tmp", func() { must(t, c.CreateTable(dynamo.Schema{Name: "tmp", HashKey: "K"})) })
	do("put", func() {
		for rev := int64(0); rev < 3; rev++ {
			must(t, c.Put("users", userRow("u1", rev), nil))
		}
	})
	do("put: every value kind, conditional", func() {
		must(t, c.Put("users", kindsRow(), dynamo.NotExists(dynamo.A("Id"))))
	})
	do("put: condition failed", func() {
		wantErr(c.Put("users", kindsRow(), dynamo.NotExists(dynamo.A("Id"))), storage.ErrConditionFailed)
	})
	do("put: item too large", func() {
		big := dynamo.Item{"Id": dynamo.S("big"), "Rev": dynamo.NInt(0), "Pad": dynamo.S(strings.Repeat("x", 1100))}
		wantErr(c.Put("users", big, nil), storage.ErrItemTooLarge)
	})
	do("update: every condition kind, every action", func() {
		cond := dynamo.And(
			dynamo.True(), dynamo.Exists(dynamo.A("Id")), dynamo.NotExists(dynamo.A("Absent")),
			dynamo.Or(dynamo.Eq(dynamo.A("N"), dynamo.NInt(0)), dynamo.Ne(dynamo.A("Team"), dynamo.S("x"))),
			dynamo.Not(dynamo.Lt(dynamo.A("Rank"), dynamo.NInt(-1))),
			dynamo.Le(dynamo.A("Rank"), dynamo.NInt(0)), dynamo.Gt(dynamo.A("Rev"), dynamo.NInt(-1)),
			dynamo.Ge(dynamo.A("Rev"), dynamo.NInt(0)),
			dynamo.IsNullOr(dynamo.AK("Lock", "id"), dynamo.Eq(dynamo.AK("Lock", "id"), dynamo.S("tx"))),
		)
		must(t, c.Update("users", userKey("u1", 0), cond,
			dynamo.Set(dynamo.A("N"), dynamo.NInt(99)), dynamo.Add(dynamo.A("Rank"), 2),
			dynamo.Set(dynamo.AK("Tags", "k"), dynamo.S("v")), dynamo.Remove(dynamo.A("Gone"))))
	})
	do("get", func() {
		_, ok, err := c.Get("users", userKey("u1", 0))
		must(t, err)
		if _, ok2, _ := c.Get("users", userKey("nobody", 0)); !ok || ok2 {
			t.Fatalf("get: found=%v, missing row found=%v", ok, ok2)
		}
	})
	do("get_proj", func() {
		_, _, err := c.GetProj("users", userKey("kinds", 0), []dynamo.Path{dynamo.A("Str"), dynamo.AK("Map", "a")})
		must(t, err)
	})
	do("get: no such table", func() {
		_, _, err := c.Get("nowhere", userKey("u1", 0))
		wantErr(err, storage.ErrNoSuchTable)
	})
	do("query", func() {
		_, err := c.Query("users", dynamo.S("u1"), dynamo.QueryOpts{
			Filter:     dynamo.Ge(dynamo.A("Rev"), dynamo.NInt(1)),
			Projection: []dynamo.Path{dynamo.A("Rev"), dynamo.A("N")},
			Limit:      5, Descending: true,
		})
		must(t, err)
	})
	do("query_index", func() {
		_, err := c.QueryIndex("users", "by-team", dynamo.S("t"), dynamo.QueryOpts{})
		must(t, err)
	})
	do("query_index: no such index", func() {
		_, err := c.QueryIndex("users", "by-nothing", dynamo.S("t"), dynamo.QueryOpts{})
		wantErr(err, storage.ErrNoSuchIndex)
	})
	do("scan", func() {
		_, err := c.Scan("users", dynamo.QueryOpts{})
		must(t, err)
	})
	do("delete", func() {
		must(t, c.Delete("users", userKey("u1", 1), dynamo.Exists(dynamo.A("Id"))))
	})
	do("transact_write", func() {
		must(t, c.TransactWrite([]dynamo.TxOp{
			{Table: "users", Put: userRow("u2", 0), Cond: dynamo.NotExists(dynamo.A("Id"))},
			{Table: "users", Key: userKey("u1", 2), Updates: []dynamo.Update{dynamo.Add(dynamo.A("N"), -0.5)}},
			{Table: "tmp", Key: dynamo.HK(dynamo.S("gone")), Delete: true},
			{Table: "users", Key: userKey("u1", 0), Cond: dynamo.Exists(dynamo.A("Id")), Check: true},
		}))
	})
	do("transact_write: canceled", func() {
		err := c.TransactWrite([]dynamo.TxOp{
			{Table: "users", Key: userKey("u1", 2), Updates: []dynamo.Update{dynamo.Add(dynamo.A("N"), 1)}},
			{Table: "users", Put: userRow("u2", 0), Cond: dynamo.NotExists(dynamo.A("Id"))},
		})
		var tce *dynamo.TxCanceledError
		if !errors.As(err, &tce) {
			t.Fatalf("got %v, want a TxCanceledError", err)
		}
	})
	do("table_names, table_shards, table_schema, table_bytes, table_item_count", func() {
		_ = c.TableNames()
		_, err := c.TableShards("users")
		must(t, err)
		_, err = c.TableSchema("users")
		must(t, err)
		_, err = c.TableBytes("users")
		must(t, err)
		_, err = c.TableItemCount("users")
		must(t, err)
	})
	do("watch", func() {
		var err error
		sub, err = c.Watch("users", dynamo.S("u3"))
		must(t, err)
	})
	do("put: fires the watch event", func() {
		must(t, c.Put("users", userRow("u3", 7), nil))
		select {
		case <-sub.Events():
		case <-time.After(10 * time.Second):
			t.Fatal("no watch event")
		}
	})
	do("unwatch", func() { sub.Close() })
	do("metrics", func() {
		_, err := c.ServerMetrics()
		must(t, err)
	})
	do("delete_table", func() { must(t, c.DeleteTable("tmp")) })
	return steps
}

func TestWireFixture(t *testing.T) {
	const fixFile = "testdata/wire.txt"
	recorded := formatSteps(recordWire(t))
	if *update {
		must(t, os.MkdirAll("testdata", 0o755))
		must(t, os.WriteFile(fixFile, []byte(recorded), 0o644))
		return
	}
	want, err := os.ReadFile(fixFile)
	must(t, err)

	// This build's client and server hold the same conversation.
	if recorded != string(want) {
		t.Errorf("this build's conversation differs from the fixture\n got:\n%s\nwant:\n%s", recorded, want)
	}

	// The fixture's requests, sent raw to a fresh server, get the fixture's
	// replies: the server half checked without this build's client.
	_, addr := serveTapped(t)
	conn, err := net.Dial("tcp", addr)
	must(t, err)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	for _, s := range parseSteps(t, string(want)) {
		for _, f := range s.sent {
			_, err := conn.Write(f)
			must(t, err)
		}
		got := make([][]byte, len(s.received))
		for i := range got {
			if got[i], err = readFrame(conn); err != nil {
				t.Fatalf("step %q: reply %d of %d: %v", s.name, i+1, len(got), err)
			}
		}
		sortFrames(got)
		for i := range got {
			if !bytes.Equal(got[i], s.received[i]) {
				t.Errorf("step %q: reply %d\n got %x\nwant %x", s.name, i+1, got[i], s.received[i])
			}
		}
	}
}
