package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"plibmc/internal/client"
	"plibmc/memcached"
)

const testKeys = 200

// testConfig is a small cluster in dir; the images of a 16 MiB heap keep
// each shutdown's flush short.
func testConfig(shards int, dir string) memcached.ClusterConfig {
	return memcached.ClusterConfig{
		Shards: shards,
		Dir:    dir,
		Store:  memcached.Config{HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16},
	}
}

func testKey(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
func testVal(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func session(t *testing.T, c *memcached.Cluster) *memcached.ClusterSession {
	t.Helper()
	cc, err := c.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seedDir leaves a cleanly shut down cluster of the given width in a fresh
// directory, holding testKeys keys, and returns the directory and the
// ring that placed them.
func seedDir(t *testing.T, shards int) (string, *memcached.Cluster) {
	t.Helper()
	dir := t.TempDir()
	c, err := memcached.CreateCluster(testConfig(shards, dir))
	if err != nil {
		t.Fatal(err)
	}
	s := session(t, c)
	for i := 0; i < testKeys; i++ {
		if err := s.Set(testKey(i), testVal(i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return dir, c
}

func open(t *testing.T, cfg memcached.ClusterConfig, wantReopened bool) *memcached.Cluster {
	t.Helper()
	c, reopened, err := openCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Shutdown() }) //nolint:errcheck
	if reopened != wantReopened {
		t.Fatalf("reopened = %v, want %v", reopened, wantReopened)
	}
	return c
}

// A -shards flag that disagrees with the directory reopens it at the
// geometry ring.json records, with every key.
func TestOpenClusterIgnoresStaleShardsFlag(t *testing.T) {
	dir, _ := seedDir(t, 2)
	c := open(t, testConfig(4, dir), true)
	if c.Shards() != 2 || c.Ring().Shards() != 2 {
		t.Fatalf("opened %d shards on a %d-shard ring, want the directory's 2",
			c.Shards(), c.Ring().Shards())
	}
	s := session(t, c)
	for i := 0; i < testKeys; i++ {
		v, _, err := s.Get(testKey(i))
		if err != nil || string(v) != string(testVal(i)) {
			t.Fatalf("%s = %q, %v after reopen; want %q", testKey(i), v, err, testVal(i))
		}
	}
}

// Losing one shard's images rebuilds that shard empty and keeps the
// other's keys.
func TestOpenClusterMissingShardKeepsSurvivors(t *testing.T) {
	dir, seeded := seedDir(t, 2)
	lost, err := filepath.Glob(filepath.Join(dir, memcached.ShardImageName(1)) + "*")
	if err != nil || len(lost) == 0 {
		t.Fatalf("shard 1 left no images (%v)", err)
	}
	for _, p := range lost {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	c := open(t, testConfig(2, dir), true)
	s := session(t, c)
	kept := 0
	for i := 0; i < testKeys; i++ {
		v, _, err := s.Get(testKey(i))
		if seeded.ShardFor(testKey(i)) == 1 {
			if !errors.Is(err, memcached.ErrNotFound) {
				t.Fatalf("%s on the lost shard = %q, %v; want a miss", testKey(i), v, err)
			}
			continue
		}
		if err != nil || string(v) != string(testVal(i)) {
			t.Fatalf("%s on the surviving shard = %q, %v; want %q", testKey(i), v, err, testVal(i))
		}
		kept++
	}
	if kept == 0 || kept == testKeys {
		t.Fatalf("shard 0 held %d of %d keys; the test needs both shards used", kept, testKeys)
	}
}

func TestOpenClusterCreatesInEmptyDir(t *testing.T) {
	for name, dir := range map[string]string{
		"empty":   t.TempDir(),
		"missing": filepath.Join(t.TempDir(), "new"),
	} {
		t.Run(name, func(t *testing.T) {
			if c := open(t, testConfig(3, dir), false); c.Shards() != 3 {
				t.Fatalf("created %d shards, want 3", c.Shards())
			}
		})
	}
}

// A daemon killed before its first checkpoint leaves ring.json and no
// shard image: that holds no data, so the restart creates at -shards.
func TestOpenClusterCreatesOverBareRing(t *testing.T) {
	dir, _ := seedDir(t, 2)
	images, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil || len(images) == 0 {
		t.Fatalf("seeded cluster left no images (%v)", err)
	}
	for _, p := range images {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ring.json")); err != nil {
		t.Fatalf("seeded cluster left no ring.json: %v", err)
	}
	c := open(t, testConfig(3, dir), false)
	if c.Shards() != 3 || c.Ring().Shards() != 3 {
		t.Fatalf("created %d shards on a %d-shard ring, want 3", c.Shards(), c.Ring().Shards())
	}
}

// One shard is the bookkeeping daemon of one store: it serves remote
// clients over a unix socket, flushes on shutdown and reopens with its
// contents.
func TestOneShardServesAndReopens(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "mc.sock")
	serve := func(wantReopened bool, do func(*memcached.SocketSession)) {
		c, reopened, err := openCluster(testConfig(1, dir))
		if err != nil {
			t.Fatal(err)
		}
		if reopened != wantReopened {
			t.Fatalf("reopened = %v, want %v", reopened, wantReopened)
		}
		srv, err := c.ServeRemote("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := client.Dial("unix", sock, client.Binary)
		if err != nil {
			t.Fatal(err)
		}
		do(memcached.NewSocketSession(cl))
		cl.Close()
		srv.Close()
		if err := c.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	serve(false, func(s *memcached.SocketSession) {
		for i := 0; i < testKeys; i++ {
			if err := s.Set(testKey(i), testVal(i), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	serve(true, func(s *memcached.SocketSession) {
		for i := 0; i < testKeys; i++ {
			v, _, err := s.Get(testKey(i))
			if err != nil || string(v) != string(testVal(i)) {
				t.Fatalf("%s = %q, %v after restart; want %q", testKey(i), v, err, testVal(i))
			}
		}
	})
}
