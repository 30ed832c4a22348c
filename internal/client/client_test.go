package client

import (
	"fmt"
	"path/filepath"
	"testing"

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
