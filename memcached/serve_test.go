package memcached

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"plibmc/internal/faultpoint"
	"plibmc/internal/proc"
	"plibmc/internal/protocol"
)

// testFrontEnd is one socket server under test. store is the store the
// test watches — the proxy's shard 0 — and key names a key on it.
type testFrontEnd struct {
	addr  string
	store *Bookkeeper
	key   func(prefix string) []byte
	other []byte // a key on another shard, nil for the hybrid
	// proc is the server's client process on store, and thread the thread
	// number of a session the server opens next there.
	proc   func() *proc.Process
	thread func() int
	stats  func() (total, idle int)
}

// serveBoth runs fn against a hybrid server on a fresh store and a proxy
// on a fresh two-shard cluster.
func serveBoth(t *testing.T, fn func(t *testing.T, fe testFrontEnd)) {
	t.Run("hybrid", func(t *testing.T) {
		b := newTestStore(t)
		t.Cleanup(func() { b.Shutdown() })
		srv, err := b.ServeRemote("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close) // after the test's connections close

		fn(t, testFrontEnd{addr: srv.Addr().String(), store: b,
			key:   func(prefix string) []byte { return []byte(prefix) },
			proc:  func() *proc.Process { s := borrow(t, &srv.pool); return s.th.Proc },
			stats: srv.pool.Stats,
			thread: func() int {
				s, err := srv.pool.open()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				return s.th.TID
			}})
	})
	t.Run("proxy", func(t *testing.T) {
		c := newTestCluster(t, 2, ClusterConfig{})
		srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)

		fn(t, testFrontEnd{addr: srv.Addr().String(), store: c.Shard(0),
			key:   func(prefix string) []byte { return keyOwnedBy(t, c, 0, prefix) },
			other: keyOwnedBy(t, c, 1, "other"),
			proc:  func() *proc.Process { s := borrow(t, &srv.pool); return s.Session(0).th.Proc },
			stats: srv.pool.Stats,
			thread: func() int {
				s, err := srv.pool.open()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				return s.Session(0).th.TID
			}})
	})
}

// borrow takes a session from p and returns it at once, leaving it idle
// for the next connection.
func borrow[S pooled](t *testing.T, p *pool[S]) S {
	s, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(s)
	return s
}

// wireClient is a connection speaking one protocol.
type wireClient struct {
	t      *testing.T
	conn   net.Conn
	r      *bufio.Reader
	binary bool
}

func dialWire(t *testing.T, addr string, binary bool) *wireClient {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireClient{t: t, conn: conn, r: bufio.NewReader(conn), binary: binary}
}

// send writes cmds in one pipelined run.
func (c *wireClient) send(cmds ...protocol.Command) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := range cmds {
		if c.binary {
			protocol.WriteBinaryCommand(w, &cmds[i]) //nolint:errcheck
		} else {
			protocol.WriteASCIICommand(w, &cmds[i]) //nolint:errcheck
		}
	}
	w.Flush()
	c.write(buf.String())
}

func (c *wireClient) write(raw string) {
	c.t.Helper()
	if _, err := io.WriteString(c.conn, raw); err != nil {
		c.t.Fatal(err)
	}
}

// line reads one ASCII reply line.
func (c *wireClient) line() string {
	c.t.Helper()
	l, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	return strings.TrimRight(l, "\r\n")
}

// status reads one binary reply's status.
func (c *wireClient) status() protocol.Status {
	c.t.Helper()
	rep, _, err := protocol.ReadBinaryReply(c.r)
	if err != nil {
		c.t.Fatal(err)
	}
	return rep.Status
}

// A crossing that fails is a server error on the wire, whatever the
// command: never a miss (a bare END, NOT_FOUND) nor a client error. Here
// the server's client process dies under its connection — the proxy's on
// shard 0 only — so every crossing it makes there fails with ErrKilled,
// and an ASCII multi-get ends with the SERVER_ERROR line after whatever
// the live shard served.
func TestServeCrossingFailures(t *testing.T) {
	serveBoth(t, func(t *testing.T, fe testFrontEnd) {
		for _, binary := range []bool{false, true} {
			t.Run(map[bool]string{false: "ascii", true: "binary"}[binary], func(t *testing.T) {
				down, first := fe.key("down"), fe.other
				p := fe.proc()
				c := dialWire(t, fe.addr, binary)
				// The first reply means the connection holds its session.
				if first != nil { // stored while its shard still serves
					c.send(protocol.Command{Op: protocol.OpSet, Key: first, Value: []byte("v")})
				} else {
					first = fe.key("down-too")
					c.send(protocol.Command{Op: protocol.OpVersion})
				}
				if binary {
					c.status()
				} else {
					c.line()
				}
				p.Kill()
				rows := []struct {
					name  string
					ascii string
					bin   []protocol.Command
				}{
					{"get", "get " + string(down) + "\r\n", []protocol.Command{{Op: protocol.OpGet, Key: down}}},
					{"set", "set " + string(down) + " 0 0 1\r\nv\r\n", []protocol.Command{{Op: protocol.OpSet, Key: down, Value: []byte("v")}}},
					{"delete", "delete " + string(down) + "\r\n", []protocol.Command{{Op: protocol.OpDelete, Key: down}}},
					{"multi-get", "get " + string(first) + " " + string(down) + "\r\n",
						[]protocol.Command{{Op: protocol.OpGet, Key: first}, {Op: protocol.OpGet, Key: down}}},
				}
				for _, row := range rows {
					if binary {
						c.send(row.bin...)
						for _, cmd := range row.bin {
							want := protocol.StatusTempFailure
							if bytes.Equal(cmd.Key, fe.other) {
								want = protocol.StatusOK
							}
							if st := c.status(); st != want {
								t.Errorf("%s %s: status %v, want %v", row.name, cmd.Key, st, want)
							}
						}
						continue
					}
					c.write(row.ascii)
					if row.name == "multi-get" && fe.other != nil {
						if l := c.line(); !strings.HasPrefix(l, "VALUE "+string(fe.other)) {
							t.Errorf("multi-get: %q, want the live shard's value first", l)
						}
						c.line()
					}
					if l := c.line(); l != "SERVER_ERROR temporary failure" {
						t.Errorf("%s: %q, want SERVER_ERROR temporary failure", row.name, l)
					}
				}
			})
		}
	})
}

// A crash inside a connection's crossing is contained like any client's:
// the batch it interrupted fails as server errors, the store repairs
// online, and the same connection goes on serving.
func TestServeFaultContainment(t *testing.T) {
	serveBoth(t, func(t *testing.T, fe testFrontEnd) {
		a, b := fe.key("fault-a"), fe.key("fault-b")
		c := dialWire(t, fe.addr, false)
		if err := faultpoint.Arm("ops.batch.mid_dispatch", func() { panic("serve_test: injected crash mid-batch") }); err != nil {
			t.Fatal(err)
		}
		defer faultpoint.Disarm("ops.batch.mid_dispatch")
		c.write("set " + string(a) + " 0 0 1\r\nx\r\nset " + string(b) + " 0 0 1\r\ny\r\n")
		for i := 0; i < 2; i++ {
			if l := c.line(); !strings.HasPrefix(l, "SERVER_ERROR ") {
				t.Fatalf("reply %d to the crashed batch = %q, want a server error", i, l)
			}
		}
		c.write("set " + string(a) + " 0 0 1\r\nz\r\n")
		if l := c.line(); l != "STORED" {
			t.Fatalf("set after the crash = %q, want STORED", l)
		}
		if n := fe.store.Library().Metrics().Recoveries; n != 1 {
			t.Fatalf("recoveries = %d, want 1", n)
		}
	})
}

// Connections come and go, sessions stay: 200 connections one after
// another all borrow the one session the server ever opens.
func TestServeConnectionChurn(t *testing.T) {
	serveBoth(t, func(t *testing.T, fe testFrontEnd) {
		for i := 0; i < 200; i++ {
			c := dialWire(t, fe.addr, false)
			c.write("version\r\n")
			c.line()
			c.conn.Close()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
				if _, idle := fe.stats(); idle == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("connection %d never returned its session", i)
				}
			}
		}
		if total, _ := fe.stats(); total != 1 {
			t.Fatalf("%d sessions pooled, want 1", total)
		}
		// A session is a thread of the server's process, so the next one
		// is its second thread if it has opened one session so far.
		if tid := fe.thread(); tid != 2 {
			t.Fatalf("next session is thread %d of the server's process, want 2", tid)
		}
	})
}
