package client

import (
	"bufio"
	"errors"
	"fmt"
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

func TestASCIIMGetSingleServer(t *testing.T) {
	sock := startServer(t, "ascii")
	c, err := Dial("unix", sock, ASCII)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	keys := [][]byte{[]byte("k1"), []byte("k3"), []byte("missing"), []byte("k7")}
	got, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got["k3"]) != "v3" {
		t.Fatalf("ascii mget = %v", got)
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

// TestASCIIMGetDistrustsServer: the length on a VALUE line is the
// server's claim, not a fact. A negative one used to panic in makeslice, a
// huge one to allocate it, and the data block's CRLF went unchecked.
func TestASCIIMGetDistrustsServer(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("b")}
	for _, reply := range []string{
		"VALUE a 0 -3 1\r\nxyz\r\nEND\r\n",
		"VALUE a 0 9999999999 1\r\nxyz\r\nEND\r\n",
		"VALUE a 0 3 1\r\nxyzXXEND\r\n",
		"VALUE a 0 3\r\nxy",
		"VALUE a notaflag 3 1\r\nxyz\r\nEND\r\n",
		"SERVER_ERROR out of memory\r\n",
	} {
		c, err := Dial("unix", scriptedServer(t, reply), ASCII)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.MGet(keys); err == nil {
			t.Errorf("reply %q: MGet returned %v, want an error", reply, got)
		}
		c.Close()
	}
	c, err := Dial("unix", scriptedServer(t, "VALUE a 5 3 1\r\nxyz\r\nVALUE b 0 0\r\n\r\nEND\r\n"), ASCII)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.MGet(keys)
	if err != nil || len(got) != 2 || string(got["a"]) != "xyz" || got["b"] == nil || len(got["b"]) != 0 {
		t.Fatalf("well-formed multi-get: %q, %v", got, err)
	}
}

// TestStatusSentinels: each non-OK status is one package-level error whose
// text is what callers have always seen, and a miss allocates nothing.
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
		c.Set([]byte("k"), []byte("v"), 0, 0) //nolint:errcheck
		if err := c.Add([]byte("k"), []byte("v"), 0, 0); !errors.Is(err, ErrExists) {
			t.Errorf("add over an entry: %v, want ErrExists", err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { statusErr(protocol.StatusKeyNotFound) }); n != 0 { //nolint:errcheck
		t.Errorf("a miss allocates %v times", n)
	}
	if err := statusErr(protocol.Status(0x7777)); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("unnamed status: %v", err)
	}
}
