package memcached

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"plibmc/internal/protocol"
)

// TestServeAllocs pins the server side of the wire at zero: from the bytes
// in the read window to the reply bytes in the write buffer, a warmed
// 16-deep pipeline of Sets and Get hits allocates nothing on the hybrid
// server or on the proxy — frames are decoded where they lie, every per-run
// buffer belongs to the connection or its borrowed session, each crossing
// of the gate works in what it is lent, replies are rendered into the
// writer's own buffer. The client here is a byte string and a fixed read
// buffer, so whatever is counted is the server's.
func TestServeAllocs(t *testing.T) {
	book := newTestStore(t)
	defer book.Shutdown()
	hybrid, err := book.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()
	proxy, err := newTestCluster(t, 4, ClusterConfig{}).ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	backends := []struct {
		name  string
		serve func(net.Conn) // the server's own connection handler
	}{
		{"hybrid", func(c net.Conn) { hybrid.connWG.Add(1); hybrid.handle(c) }},
		{"proxy", func(c net.Conn) { proxy.connWG.Add(1); proxy.handle(c) }},
	}
	val := bytes.Repeat([]byte("v"), 128)
	for _, b := range backends {
		for _, binary := range []bool{true, false} {
			proto := map[bool]string{true: "binary", false: "ascii"}[binary]
			t.Run(b.name+"/"+proto, func(t *testing.T) {
				client, srv := net.Pipe()
				done := make(chan struct{})
				go func() { b.serve(srv); close(done) }()
				defer func() { client.Close(); <-done }()

				// The gets read keys the script never writes again, so the
				// reply stream is the same length run after run.
				var load, script []protocol.Command
				for i := 0; i < 8; i++ {
					load = append(load, protocol.Command{Op: protocol.OpSet, Key: []byte(fmt.Sprintf("%s-get-%d", proto, i)), Value: val})
					script = append(script,
						protocol.Command{Op: protocol.OpSet, Key: []byte(fmt.Sprintf("%s-set-%d", proto, i)), Value: val, Flags: 7, Opaque: uint32(i)},
						protocol.Command{Op: protocol.OpGet, Key: load[i].Key, Opaque: uint32(i)})
				}
				encode := func(cmds []protocol.Command) []byte {
					var buf bytes.Buffer
					w := bufio.NewWriter(&buf)
					for i := range cmds {
						if binary {
							protocol.WriteBinaryCommand(w, &cmds[i]) //nolint:errcheck
						} else {
							protocol.WriteASCIICommand(w, &cmds[i]) //nolint:errcheck
						}
					}
					w.Flush()
					return buf.Bytes()
				}
				// exchange checks every reply and returns their length.
				counted := &countingConn{Conn: client}
				r := bufio.NewReader(counted)
				exchange := func(cmds []protocol.Command) int {
					before := counted.n
					if _, err := client.Write(encode(cmds)); err != nil {
						t.Fatal(err)
					}
					for i := range cmds {
						var rep *protocol.Reply
						var err error
						if binary {
							rep, _, err = protocol.ReadBinaryReply(r)
						} else {
							rep, err = protocol.ReadASCIIReply(r, &cmds[i])
						}
						if err != nil || rep.Status != protocol.StatusOK {
							t.Fatalf("%v %s: %+v, %v", cmds[i].Op, cmds[i].Key, rep, err)
						}
					}
					return counted.n - before
				}
				exchange(load)
				replies := make([]byte, exchange(script))
				wire := encode(script)
				perRun := testing.AllocsPerRun(200, func() {
					client.Write(wire)           //nolint:errcheck
					io.ReadFull(client, replies) //nolint:errcheck
				})
				t.Logf("%v allocations per run of %d commands", perRun, len(script))
				limit := 0.0
				if !binary {
					limit = 1
				}
				if perCmd := perRun / float64(len(script)); perCmd > limit {
					t.Errorf("%v allocations per run of %d commands: %.2f per command, want at most %v", perRun, len(script), perCmd, limit)
				}
			})
		}
	}
}

type countingConn struct {
	net.Conn
	n int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += n
	return n, err
}
