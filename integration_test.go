package plibmc

// Full-stack integration tests: scenarios that cross every layer of the
// system, from the wire protocols down to the shared heap.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"plibmc/internal/client"
	"plibmc/internal/protocol"
	"plibmc/internal/server"
	"plibmc/internal/ycsb"
	"plibmc/memcached"
	"plibmc/memcached/compat"
)

// TestScenarioLocalAndRemoteClients is the paper's deployment picture plus
// the §6 hybrid extension: local client processes use trampolined calls
// while remote clients reach the same store over both wire protocols, all
// concurrently.
func TestScenarioLocalAndRemoteClients(t *testing.T) {
	book, err := memcached.CreateStore(memcached.Config{HeapBytes: 64 << 20, HashPower: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.StartMaintenance(50 * time.Millisecond)
	defer book.StopMaintenance()

	sock := filepath.Join(t.TempDir(), "hybrid.sock")
	remote, err := book.ServeRemote("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)

	// Three local processes, two threads each.
	for p := 0; p < 3; p++ {
		cp, err := book.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < 2; th++ {
			s, err := cp.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(id int, s *memcached.Session) {
				defer wg.Done()
				defer s.Close()
				for i := 0; i < 500; i++ {
					k := []byte(fmt.Sprintf("local-%d-%d", id, i))
					if err := s.Set(k, []byte("L"), 0, 0); err != nil {
						errCh <- err
						return
					}
					if _, _, err := s.Get(k); err != nil {
						errCh <- err
						return
					}
				}
			}(p*2+th, s)
		}
	}

	// Two remote clients, one per protocol.
	for i, proto := range []client.Protocol{client.Binary, client.ASCII} {
		wg.Add(1)
		go func(id int, proto client.Protocol) {
			defer wg.Done()
			c, err := client.Dial("unix", sock, proto)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("remote-%d-%d", id, i))
				if err := c.Set(k, []byte("R"), 0, 0); err != nil {
					errCh <- err
					return
				}
				if _, _, _, err := c.Get(k); err != nil {
					errCh <- err
					return
				}
			}
		}(i, proto)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Cross-visibility: a fresh local session sees remote writes and vice
	// versa.
	cp, _ := book.NewClientProcess(2000)
	s, _ := cp.NewSession()
	defer s.Close()
	if v, _, err := s.Get([]byte("remote-0-0")); err != nil || string(v) != "R" {
		t.Fatalf("local sees remote write: %q, %v", v, err)
	}
	c, _ := client.Dial("unix", sock, client.Binary)
	defer c.Close()
	if v, _, _, err := c.Get([]byte("local-0-0")); err != nil || string(v) != "L" {
		t.Fatalf("remote sees local write: %q, %v", v, err)
	}
	st := book.Stats()
	if st.CurrItems != 3*2*500+2*300 {
		t.Fatalf("CurrItems = %d", st.CurrItems)
	}
}

// TestScenarioYCSBBothBackends runs a small YCSB mix through the classic
// compat API against both backends and checks they agree on final state
// for a deterministic operation sequence.
func TestScenarioYCSBBothBackends(t *testing.T) {
	// Socket backend.
	sock := filepath.Join(t.TempDir(), "mc.sock")
	srv, err := server.New(server.Config{Network: "unix", Addr: sock, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	conn, err := client.Dial("unix", sock, client.Binary)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mSock := compat.Create()
	mSock.UseSocket(conn)

	// Plib backend.
	book, err := memcached.CreateStore(memcached.Config{HeapBytes: 32 << 20, HashPower: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	cp, _ := book.NewClientProcess(1000)
	sess, _ := cp.NewSession()
	defer sess.Close()
	mPlib := compat.Create()
	mPlib.UsePlib(sess)

	w := ycsb.WriteHeavy128(500)
	run := func(m *compat.St) map[string]string {
		gen := w.NewClient(42) // same seed: identical op stream
		final := map[string]string{}
		for i := 0; i < 3000; i++ {
			kind, key, val := gen.Next()
			if kind == ycsb.OpRead {
				m.Get(key)
			} else {
				if rc := m.Set(key, val, 0, 0); rc != compat.Success {
					t.Fatalf("set: %v", rc)
				}
				final[string(key)] = string(val)
			}
		}
		return final
	}
	wantSock := run(mSock)
	wantPlib := run(mPlib)
	if len(wantSock) != len(wantPlib) {
		t.Fatalf("backends diverged: %d vs %d keys written", len(wantSock), len(wantPlib))
	}
	for k, v := range wantSock {
		gotS, _, rcS := mSock.Get([]byte(k))
		gotP, _, rcP := mPlib.Get([]byte(k))
		if rcS != compat.Success || rcP != compat.Success {
			t.Fatalf("key %q: rc sock=%v plib=%v", k, rcS, rcP)
		}
		if !bytes.Equal(gotS, gotP) || string(gotS) != v {
			t.Fatalf("key %q: sock=%q plib=%q want=%q", k, gotS, gotP, v)
		}
	}
}

// TestScenarioRestartUnderLoad exercises shutdown-flush-reopen with a
// populated store and checks the reopened store serves the full working
// set and accepts new load.
func TestScenarioRestartUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 32 << 20, Path: path, HashPower: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := book.NewClientProcess(1000)
	s, _ := cp.NewSession()
	w := ycsb.WriteHeavy128(2000)
	key := make([]byte, 0, 20)
	val := make([]byte, w.ValueSize)
	for i := uint64(0); i < w.RecordCount; i++ {
		key = ycsb.KeyInto(key, i)
		ycsb.FillValue(val, i)
		if err := s.Set(key, val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := book.Shutdown(); err != nil {
		t.Fatal(err)
	}

	book2, err := memcached.OpenStore(memcached.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer book2.Shutdown()
	cp2, _ := book2.NewClientProcess(1000)
	s2, _ := cp2.NewSession()
	defer s2.Close()
	want := make([]byte, w.ValueSize)
	for i := uint64(0); i < w.RecordCount; i++ {
		key = ycsb.KeyInto(key, i)
		ycsb.FillValue(want, i)
		v, _, err := s2.Get(key)
		if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("record %d after restart: err=%v", i, err)
		}
	}
	// New load on the reopened store, concurrently.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ss, err := cp2.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer ss.Close()
			for i := 0; i < 500; i++ {
				if err := ss.Set([]byte(fmt.Sprintf("new-%d-%d", g, i)), []byte("x"), 0, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := book2.Stats(); st.CurrItems != w.RecordCount+4*500 {
		t.Fatalf("CurrItems = %d", st.CurrItems)
	}
}

// TestScenarioEvictionKeepsServing drives the store far past its memory
// limit and verifies the working set keeps being served while old records
// are evicted, with maintenance running concurrently.
func TestScenarioEvictionKeepsServing(t *testing.T) {
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 8 << 20, MemLimit: 4 << 20, HashPower: 10, FixedSize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.StartMaintenance(10 * time.Millisecond)
	defer book.StopMaintenance()

	cp, _ := book.NewClientProcess(1000)
	s, _ := cp.NewSession()
	defer s.Close()
	val := make([]byte, 1024)
	for i := 0; i < 20000; i++ {
		k := []byte(fmt.Sprintf("rec-%06d", i))
		if err := s.Set(k, val, 0, 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if i%100 == 0 {
			// The most recent write is always readable.
			if _, _, err := s.Get(k); err != nil {
				t.Fatalf("hot record %d evicted: %v", i, err)
			}
		}
	}
	st := book.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if _, _, err := s.Get([]byte("rec-000000")); !errors.Is(err, memcached.ErrNotFound) {
		t.Fatal("oldest record should be gone")
	}
	if book.Allocator().LiveBytes() > book.Store().MemLimit() {
		t.Fatalf("live bytes %d above limit %d", book.Allocator().LiveBytes(), book.Store().MemLimit())
	}
}

// TestMalformedASCIIAllFrontEnds is the all-front-ends wire table: what
// the baseline server, Bookkeeper.ServeRemote and Cluster.ServeRemote do at
// the edges of the protocol, where three hand-kept read loops used to
// disagree. Each row is a list of exchanges, each on its own connection:
// send, optionally half-close, and check the complete reply stream up to
// the server's close.
//
//   - An ASCII command that does not parse (here a flags field past
//     uint32): the replies of the commands parsed before it are flushed,
//     the client gets CLIENT_ERROR, the connection closes, and the rejected
//     command has no effect. (The hybrid server used to close silently.)
//   - A clean EOF is not a protocol error: the replies, then nothing. (The
//     hybrid server and the proxy used to append CLIENT_ERROR EOF.)
//   - A command line that does not end within one read window is refused
//     with CLIENT_ERROR line too long. (All three used to buffer it
//     without limit.)
//   - The binary quiet opcodes: SETQ writes no frame on success, GETQ none
//     on a miss — lone or mid-pipeline. (The hybrid server and the proxy
//     used to answer both.)
func TestMalformedASCIIAllFrontEnds(t *testing.T) {
	dir := t.TempDir()
	base, err := server.New(server.Config{Network: "unix", Addr: filepath.Join(dir, "base.sock"), Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	go base.Serve()
	defer base.Close()

	book, err := memcached.CreateStore(memcached.Config{HeapBytes: 16 << 20, HashPower: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	hybrid, err := book.ServeRemote("unix", filepath.Join(dir, "hybrid.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()

	cluster, err := memcached.CreateCluster(memcached.ClusterConfig{Shards: 2,
		Store: memcached.Config{HeapBytes: 16 << 20, HashPower: 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	proxy, err := cluster.ServeRemote("unix", filepath.Join(dir, "proxy.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// lines checks an ASCII reply stream line by line, by prefix (every
	// front end appends its own CAS generation to VALUE lines), with
	// nothing after the last.
	lines := func(prefixes ...string) func(*testing.T, []byte) {
		return func(t *testing.T, got []byte) {
			t.Helper()
			rest := string(got)
			for _, want := range prefixes {
				line, after, _ := strings.Cut(rest, "\n")
				if !strings.HasPrefix(line+"\n", want) {
					t.Fatalf("reply stream %q: line %q, want prefix %q", got, line, want)
				}
				rest = after
			}
			if rest != "" {
				t.Fatalf("reply stream %q: %q after the last expected line", got, rest)
			}
		}
	}
	// frames checks a binary reply stream: exactly these frames.
	type frame struct {
		opcode byte // 0x00 get, 0x08 flush, 0x0a noop
		value  string
		status protocol.Status
	}
	frames := func(want ...frame) func(*testing.T, []byte) {
		return func(t *testing.T, got []byte) {
			t.Helper()
			r := bufio.NewReader(bytes.NewReader(got))
			for i, f := range want {
				rep, opcode, err := protocol.ReadBinaryReply(r)
				if err != nil {
					t.Fatalf("reply stream % x: frame %d of %d: %v", got, i, len(want), err)
				}
				if opcode != f.opcode || rep.Status != f.status || string(rep.Value) != f.value {
					t.Fatalf("frame %d = opcode %#x status %v value %q; want %#x %v %q",
						i, opcode, rep.Status, rep.Value, f.opcode, f.status, f.value)
				}
			}
			if rest, _ := io.ReadAll(r); len(rest) != 0 {
				t.Fatalf("reply stream % x: % x after the %d expected frames", got, rest, len(want))
			}
		}
	}
	bin := func(cmds ...protocol.Command) string {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		for i := range cmds {
			if err := protocol.WriteBinaryCommand(w, &cmds[i]); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		return buf.String()
	}
	setq := func(k, v string) protocol.Command {
		return protocol.Command{Op: protocol.OpSet, Quiet: true, Key: []byte(k), Value: []byte(v)}
	}
	getq := func(k string) protocol.Command {
		return protocol.Command{Op: protocol.OpGet, Quiet: true, Key: []byte(k)}
	}

	const bad = "set k 4294967296 0 1\r\nv\r\n"
	const clientError = "CLIENT_ERROR protocol: bad command line format for set\r\n"
	type exchange struct {
		send      string
		halfClose bool // else the server must hang up on its own
		check     func(*testing.T, []byte)
	}
	// The rejected set must not have landed.
	kAbsent := exchange{"get k\r\n", true, lines("END\r\n")}
	cases := []struct {
		name  string
		steps []exchange
	}{
		{"first command", []exchange{{bad, false, lines(clientError)}, kAbsent}},
		{"mid-pipeline", []exchange{
			{"set a 7 0 1\r\nx\r\nget a\r\n" + bad, false,
				lines("STORED\r\n", "VALUE a 7 1 ", "x\r\n", "END\r\n", clientError)},
			kAbsent}},
		{"clean EOF", []exchange{{"get nothing\r\n", true, lines("END\r\n")}}},
		// One read window (64 KiB) without a newline: refused, not buffered
		// for as long as the client cares to stream.
		{"line too long", []exchange{
			{"get nothing\r\n" + strings.Repeat("k", 64<<10), false, lines("END\r\n", "CLIENT_ERROR line too long\r\n")}}},
		{"quiet lone", []exchange{
			{bin(setq("q1", "v")), true, frames()},
			{bin(getq("q-absent")), true, frames()},
			{bin(getq("q1")), true, frames(frame{0x00, "v", 0})}}},
		{"quiet mid-pipeline", []exchange{
			{bin(setq("q2", "w"), getq("q-absent"), getq("q2"), protocol.Command{Op: protocol.OpNoop}), true,
				frames(frame{0x00, "w", 0}, frame{0x0a, "", 0})}}},
		// noreply silences flush_all, incr, decr and touch as it does the
		// stores and delete, so the replies after them stay in step.
		{"noreply", []exchange{
			{"set n 0 0 1\r\n5\r\nincr n 2 noreply\r\ndecr n 1 noreply\r\ntouch n 0 noreply\r\nget n\r\n" +
				"flush_all noreply\r\nget n\r\n", true,
				lines("STORED\r\n", "VALUE n 0 1 ", "6\r\n", "END\r\n", "END\r\n")}}},
		// A delayed flush is refused, not run at once: nothing is flushed.
		// An undelayed one still flushes.
		{"delayed flush", []exchange{
			{"set d 0 0 1\r\nv\r\nflush_all 60\r\nget d\r\nflush_all 0\r\nget d\r\n", true,
				lines("STORED\r\n", "CLIENT_ERROR ", "VALUE d 0 1 ", "v\r\n", "END\r\n", "OK\r\n", "END\r\n")},
			{bin(setq("bd", "w"), protocol.Command{Op: protocol.OpFlushAll, Exptime: 60},
				protocol.Command{Op: protocol.OpGet, Key: []byte("bd")}, protocol.Command{Op: protocol.OpFlushAll}, getq("bd")), true,
				frames(frame{0x08, "", protocol.StatusInvalidArgs}, frame{0x00, "w", 0}, frame{0x08, "", 0})}}},
	}
	for _, fe := range []struct {
		name string
		addr net.Addr
	}{
		{"baseline", base.Addr()},
		{"Bookkeeper.ServeRemote", hybrid.Addr()},
		{"Cluster.ServeRemote", proxy.Addr()},
	} {
		for _, tc := range cases {
			t.Run(fe.name+"/"+tc.name, func(t *testing.T) {
				for _, x := range tc.steps {
					x.check(t, wireExchange(t, fe.addr, []byte(x.send), x.halfClose))
				}
			})
		}
	}
}

// wireExchange sends one byte string on a fresh connection, half-closes
// if asked (else the server must hang up on its own), and returns
// everything the server wrote up to its clean close.
func wireExchange(t *testing.T, addr net.Addr, send []byte, halfClose bool) []byte {
	t.Helper()
	c, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := c.Write(send); err != nil {
		t.Fatal(err)
	}
	if halfClose {
		if err := c.(*net.UnixConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("after %.80q: read %q, %v; want a clean close", send, got, err)
	}
	return got
}
