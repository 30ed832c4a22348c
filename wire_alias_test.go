package plibmc

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"plibmc/internal/faultpoint"
	"plibmc/internal/protocol"
	"plibmc/internal/server"
	"plibmc/memcached"
)

// wireClient is a raw pipelining client: whole runs of commands out in the
// writes the test chooses, replies back in order.
type wireClient struct {
	t      *testing.T
	c      net.Conn
	r      *bufio.Reader
	binary bool
}

func dialWire(t *testing.T, addr net.Addr, binary bool) *wireClient {
	t.Helper()
	c, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	return &wireClient{t: t, c: c, r: bufio.NewReader(c), binary: binary}
}

func (wc *wireClient) encode(cmds []protocol.Command) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := range cmds {
		var err error
		if wc.binary {
			err = protocol.WriteBinaryCommand(w, &cmds[i])
		} else {
			err = protocol.WriteASCIICommand(w, &cmds[i])
		}
		if err != nil {
			wc.t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

func (wc *wireClient) write(b []byte) {
	wc.t.Helper()
	if _, err := wc.c.Write(b); err != nil {
		wc.t.Fatal(err)
	}
}

// expect reads the replies to cmds: every set stored, every get a hit
// with the value want gives for its key.
func (wc *wireClient) expect(cmds []protocol.Command, want map[string][]byte) {
	wc.t.Helper()
	for i := range cmds {
		var rep *protocol.Reply
		var err error
		if wc.binary {
			rep, _, err = protocol.ReadBinaryReply(wc.r)
		} else {
			rep, err = protocol.ReadASCIIReply(wc.r, &cmds[i])
		}
		if err != nil {
			wc.t.Fatalf("reply %d of %d (%v %s): %v", i, len(cmds), cmds[i].Op, cmds[i].Key, err)
		}
		if rep.Status != protocol.StatusOK {
			wc.t.Fatalf("%v %s: %v", cmds[i].Op, cmds[i].Key, rep.Status)
		}
		if cmds[i].Op == protocol.OpGet && !bytes.Equal(rep.Value, want[string(cmds[i].Key)]) {
			wc.t.Fatalf("get %s = %.40q… (%d bytes), want %.40q… (%d bytes)", cmds[i].Key,
				rep.Value, len(rep.Value), want[string(cmds[i].Key)], len(want[string(cmds[i].Key)]))
		}
	}
}

// readBack gets every key of want, a run of 16 at a time.
func (wc *wireClient) readBack(want map[string][]byte) {
	wc.t.Helper()
	var gets []protocol.Command
	for k := range want {
		gets = append(gets, protocol.Command{Op: protocol.OpGet, Key: []byte(k)})
	}
	for ; len(gets) > 0; gets = gets[min(16, len(gets)):] {
		run := gets[:min(16, len(gets))]
		wc.write(wc.encode(run))
		wc.expect(run, want)
	}
}

// aliasRun is a run of 16 sets whose frames are the same size whatever
// tag says, so that consecutive runs land on the same bytes of the
// server's read window; the first value is wide bytes long. What the run
// stores is recorded in want.
func aliasRun(tag string, wide int, want map[string][]byte) []protocol.Command {
	cmds := make([]protocol.Command, 16)
	for i := range cmds {
		key := fmt.Sprintf("alias-%s-%02d", tag, i)
		n := 100
		if i == 0 {
			n = wide
		}
		val := bytes.Repeat([]byte(key), n/len(key)+1)[:n]
		cmds[i] = protocol.Command{Op: protocol.OpSet, Key: []byte(key), Value: val, Flags: uint32(i)}
		want[key] = val
	}
	return cmds
}

// TestWireNoAliasRetained pins the lifetime rule of protocol.ServeConn
// from the outside: a command borrows the connection's read window only
// until its run has been dispatched. Run A stores 16 keys; run B, of
// identical frame sizes, then lands other keys and values on the very
// bytes A's occupied; every key of A must still read back as A wrote it.
// On every front end and in both protocols — with a value wider than the
// window (the frame gets a buffer of its own), with a run that ends in a
// partial frame completed by a later write (the replies owed so far must
// arrive first), and on the proxy during a live resize (the one path that
// keeps a key beyond the op: the migration's dirty set).
func TestWireNoAliasRetained(t *testing.T) {
	dir := t.TempDir()
	base, err := server.New(server.Config{Network: "unix", Addr: filepath.Join(dir, "base.sock"), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	go base.Serve()
	defer base.Close()
	cfg := memcached.Config{HeapBytes: 32 << 20, HashPower: 10}
	book, err := memcached.CreateStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	hybrid, err := book.ServeRemote("unix", filepath.Join(dir, "hybrid.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()
	cluster, err := memcached.CreateCluster(memcached.ClusterConfig{Shards: 2, VirtualNodes: 8, Store: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	proxy, err := cluster.ServeRemote("unix", filepath.Join(dir, "proxy.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	for _, fe := range []struct {
		name string
		addr net.Addr
	}{{"baseline", base.Addr()}, {"Bookkeeper.ServeRemote", hybrid.Addr()}, {"Cluster.ServeRemote", proxy.Addr()}} {
		for _, binary := range []bool{false, true} {
			proto := map[bool]string{false: "ascii", true: "binary"}[binary]
			t.Run(fe.name+"/"+proto, func(t *testing.T) {
				for _, wide := range []int{100, 70 << 10} {
					wc := dialWire(t, fe.addr, binary)
					want := map[string][]byte{}
					a := aliasRun(fmt.Sprintf("%s-A%d", proto, wide), wide, want)
					b := aliasRun(fmt.Sprintf("%s-B%d", proto, wide), wide, want)
					wc.write(wc.encode(a))
					wc.expect(a, nil)
					wc.write(wc.encode(b))
					wc.expect(b, nil)
					wc.readBack(want)
				}
				// Run A and the front of run B in one write, cut inside a
				// frame; A's replies are owed before the rest is sent.
				wc := dialWire(t, fe.addr, binary)
				want := map[string][]byte{}
				a, b := aliasRun(proto+"-PA", 100, want), aliasRun(proto+"-PB", 100, want)
				rest := wc.encode(b)
				cut := len(rest)/2 + 3
				wc.write(append(wc.encode(a), rest[:cut]...))
				wc.expect(a, nil)
				wc.write(rest[cut:])
				wc.expect(b, nil)
				wc.readBack(want)
			})
		}
	}

	// The live resize. Hold the migrator between copying a segment and
	// cutting it over; overwrite every key through the proxy, each run on
	// the window bytes of the one before; let the resize finish. A write
	// to an already copied key reaches its new shard only through the
	// dirty set, so a mark that aliased the window would lose it.
	for _, binary := range []bool{false, true} {
		proto := map[bool]string{false: "ascii", true: "binary"}[binary]
		t.Run("Cluster.ServeRemote/"+proto+"/resize", func(t *testing.T) {
			defer faultpoint.DisarmAll()
			wc := dialWire(t, proxy.Addr(), binary)
			want := map[string][]byte{}
			var runs [][]protocol.Command
			for i := 0; i < 32; i++ {
				runs = append(runs, aliasRun(fmt.Sprintf("%s-R%02d", proto, i), 100, want))
			}
			for _, run := range runs { // the values the copy will move
				old := append([]protocol.Command(nil), run...)
				for i := range old {
					old[i].Value = bytes.ToUpper(old[i].Value)
				}
				wc.write(wc.encode(old))
				wc.expect(old, nil)
			}
			reached, release := make(chan struct{}), make(chan struct{})
			if err := faultpoint.Arm("migrate.mid_segment", func() { close(reached); <-release }); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Resize(cluster.Shards() + 1); err != nil {
				t.Fatal(err)
			}
			select {
			case <-reached:
			case <-time.After(30 * time.Second):
				t.Fatal("the migration never reached migrate.mid_segment")
			}
			for _, run := range runs {
				wc.write(wc.encode(run))
				wc.expect(run, nil)
			}
			close(release)
			if err := cluster.WaitResize(60 * time.Second); err != nil {
				t.Fatal(err)
			}
			wc.readBack(want)
		})
	}
}
