package client

import (
	"bufio"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"

	"plibmc/internal/protocol"
	"plibmc/internal/server"
)

func startServer(t *testing.T, name string) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), name+".sock")
	srv, err := server.New(server.Config{Network: "unix", Addr: sock, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return sock
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("unix", "/nonexistent/never.sock", Binary); err == nil {
		t.Fatal("dial of missing socket should fail")
	}
}

// scriptedServer answers every connection with a fixed byte string once
// the client has sent its request line.
func scriptedServer(t *testing.T, reply string) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "fake.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			bufio.NewReader(c).ReadString('\n') //nolint:errcheck
			c.Write([]byte(reply))              //nolint:errcheck
			c.Close()
		}
	}()
	return sock
}

// TestASCIIReplyDistrustsServer: the length on a VALUE line is the
// server's claim, not a fact. A negative one used to panic in makeslice, a
// huge one to allocate it, and the data block's CRLF went unchecked. A
// SERVER_ERROR is a status, not a hit.
func TestASCIIReplyDistrustsServer(t *testing.T) {
	get := &protocol.Command{Op: protocol.OpGet, Key: []byte("a")}
	for _, reply := range []string{
		"VALUE a 0 -3 1\r\nxyz\r\nEND\r\n",
		"VALUE a 0 9999999999 1\r\nxyz\r\nEND\r\n",
		"VALUE a 0 3 1\r\nxyzXXEND\r\n",
		"VALUE a 0 3\r\nxy",
		"VALUE a notaflag 3 1\r\nxyz\r\nEND\r\n",
	} {
		c, err := Dial("unix", scriptedServer(t, reply), ASCII)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := c.Do(get); err == nil {
			t.Errorf("reply %q: Do returned %+v, want an error", reply, rep)
		}
		c.Close()
	}
	for reply, want := range map[string]protocol.Reply{
		"SERVER_ERROR out of memory\r\n":  {Status: protocol.StatusOutOfMemory},
		"VALUE a 5 3 1\r\nxyz\r\nEND\r\n": {Status: protocol.StatusOK, Flags: 5, Value: []byte("xyz"), CAS: 1},
		"VALUE a 0 0\r\n\r\nEND\r\n":      {Status: protocol.StatusOK, Value: []byte{}},
	} {
		c, err := Dial("unix", scriptedServer(t, reply), ASCII)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Do(get)
		if err != nil || rep.Status != want.Status || rep.Flags != want.Flags || rep.CAS != want.CAS ||
			string(rep.Value) != string(want.Value) || (want.Value != nil) != (rep.Value != nil) {
			t.Errorf("reply %q: %+v, %v; want %+v", reply, rep, err, want)
		}
		c.Close()
	}
}

// A reply that does not parse, in the middle of a pipeline, closes the
// connection: the replies behind it are never read as the next call's.
func TestPipelineBadReplyLeavesNoStaleReply(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "bad.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		bufio.NewReader(conn).ReadString('\n')            //nolint:errcheck
		conn.Write([]byte("VALUE a 0 1\r\nx\r\nEND\r\n" + // a's reply
			"VALUE b 0 bad\r\n" + // b's, which does not parse
			"END\r\nVALUE c 0 1\r\nz\r\nEND\r\n")) //nolint:errcheck // c's, stale once b failed
		io.Copy(io.Discard, conn) //nolint:errcheck // held open until the client hangs up
	}()
	c, err := Dial("unix", sock, ASCII)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := func(s string) protocol.Command { return protocol.Command{Op: protocol.OpGet, Key: []byte(s)} }
	cmds := []protocol.Command{k("a"), k("b"), k("c")}
	if err := c.Pipeline(cmds, make([]*protocol.Reply, len(cmds))); err == nil {
		t.Fatal("a pipeline with an unparseable reply succeeded")
	}
	if rep, err := c.Do(&cmds[2]); err == nil {
		t.Fatalf("the call after a failed pipeline read %+v", rep)
	}
}

// TestStatusSentinels: a miss is one package-level error whose text is
// what callers have always seen, and it allocates nothing.
func TestStatusSentinels(t *testing.T) {
	sock := startServer(t, "sentinel")
	for _, proto := range []Protocol{Binary, ASCII} {
		c, err := Dial("unix", sock, proto)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, _, _, err := c.Get([]byte("absent")); !errors.Is(err, ErrNotFound) || err.Error() != "memcached: NOT_FOUND" {
			t.Errorf("miss: %v", err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { statusErr(protocol.StatusKeyNotFound) }); n != 0 { //nolint:errcheck
		t.Errorf("a miss allocates %v times", n)
	}
	if err := statusErr(protocol.Status(0x7777)); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("unnamed status: %v", err)
	}
}

// A key the ASCII protocol cannot carry is refused before a byte is
// written — by Do, and by Pipeline for the whole batch — and the
// connection stays open and in step.
func TestASCIIBadKeyLeavesConnectionInStep(t *testing.T) {
	c, err := Dial("unix", startServer(t, "badkey"), ASCII)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	bad := []byte("x\r\ndelete k")
	if _, err := c.Do(&protocol.Command{Op: protocol.OpGet, Key: bad}); !errors.Is(err, protocol.ErrBadKey) {
		t.Fatalf("Do = %v, want ErrBadKey", err)
	}
	cmds := []protocol.Command{{Op: protocol.OpGet, Key: []byte("k")}, {Op: protocol.OpDelete, Key: bad}}
	if err := c.Pipeline(cmds, make([]*protocol.Reply, len(cmds))); !errors.Is(err, protocol.ErrBadKey) {
		t.Fatalf("Pipeline = %v, want ErrBadKey", err)
	}
	if v, _, _, err := c.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after the refusals = %q, %v; want the key, on the same connection", v, err)
	}
}
