package memcached

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/faultpoint"
	"plibmc/internal/ring"
)

// A resize that does not complete must leave every acknowledged write
// where the next Get finds it: an abort, a park and a failed manifest write
// all fall back to the old ring, so the writes must be on the old ring's
// owners when they do. These tests drive a 2 → 3 resize over 2 000 keys.

const resizeTestKeys = 2000

func resizeTestKey(i int) []byte { return []byte(fmt.Sprintf("rz-%05d", i)) }

// resizeSession opens a session the test closes itself, before any
// Shutdown it calls.
func resizeSession(t *testing.T, c *Cluster) *ClusterSession {
	t.Helper()
	cc, err := c.NewClientProcess(1100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// setAll writes val to every test key.
func setAll(t *testing.T, s *ClusterSession, val string) {
	t.Helper()
	for i := 0; i < resizeTestKeys; i++ {
		if err := s.Set(resizeTestKey(i), []byte(val), 0, 0); err != nil {
			t.Errorf("set %s: %v", resizeTestKey(i), err)
			return
		}
	}
}

// requireAll fails unless every test key reads want.
func requireAll(t *testing.T, s *ClusterSession, want string) {
	t.Helper()
	lost, example := 0, ""
	for i := 0; i < resizeTestKeys; i++ {
		v, _, err := s.Get(resizeTestKey(i))
		if err != nil || string(v) != want {
			if lost == 0 {
				example = fmt.Sprintf("%s = %q, %v", resizeTestKey(i), v, err)
			}
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d/%d acknowledged writes lost (first: %s)", lost, resizeTestKeys, example)
	}
}

// armEvery arms migrate.mid_segment with fn for every firing: the handler
// re-arms itself before it runs, so a panicking fn fires again on the
// migrator's next attempt.
func armEvery(t *testing.T, fn func()) {
	t.Helper()
	var h func()
	h = func() {
		faultpoint.Arm("migrate.mid_segment", h) //nolint:errcheck // registered
		fn()
	}
	if err := faultpoint.Arm("migrate.mid_segment", h); err != nil {
		t.Fatal(err)
	}
}

// Writes made after one segment has been copied, by a migration that then
// crashes on every attempt until it aborts, read back after the abort.
func TestResizeAbortKeepsWrites(t *testing.T) {
	defer faultpoint.DisarmAll()
	c := newTestCluster(t, 2, ClusterConfig{VirtualNodes: 8})
	s := newClusterSession(t, c)
	setAll(t, s, "old")
	w := newClusterSession(t, c) // the handler's own session
	var wrote atomic.Bool
	armEvery(t, func() {
		if c.MigrationStatus().SegmentsDone == 0 {
			return
		}
		if !wrote.Swap(true) {
			setAll(t, w, "new")
		}
		panic("resize_test: migrator crashes after a segment was copied")
	})
	if err := c.Resize(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err == nil {
		t.Fatal("the resize completed; the test needs it to abort")
	}
	faultpoint.DisarmAll()
	if !wrote.Load() {
		t.Fatal("the migration aborted before any segment was copied")
	}
	requireAll(t, s, "new")
	assertSingleOwner(t, c)
}

// copiedSegment returns a segment of m whose keys have been copied to its
// destination, or false while none has.
func copiedSegment(m *migration) (ring.Segment, bool) {
	for _, s := range m.segs {
		if s.copied.Load() {
			return s.seg, true
		}
	}
	return ring.Segment{}, false
}

// A write into a copied segment, made just before Shutdown parks the
// migration, reads back after the cluster reopens.
func TestResizeParkKeepsWrites(t *testing.T) {
	defer faultpoint.DisarmAll()
	cfg := ClusterConfig{Shards: 2, VirtualNodes: 8, Dir: t.TempDir(),
		Store: Config{HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16}}
	c, err := CreateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := resizeSession(t, c)
	setAll(t, s, "old")
	var key []byte
	armEvery(t, func() {
		m := c.lastMig.Load()
		seg, ok := copiedSegment(m)
		if !ok {
			return
		}
		for i := 0; key == nil; i++ {
			if k := []byte(fmt.Sprintf("park-%d", i)); seg.Contains(ring.Hash(k)) {
				key = k
			}
		}
		if err := s.Set(key, []byte("parked"), 0, 0); err != nil {
			t.Errorf("set %s: %v", key, err)
		}
		m.stopped.Store(true)
		panic("resize_test: migrator stops while Shutdown parks it")
	})
	if err := c.Resize(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err == nil {
		t.Fatal("the resize completed; the test needs it to park")
	}
	faultpoint.DisarmAll()
	if key == nil {
		t.Fatal("the migration parked before any segment was copied")
	}
	s.Close()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Shutdown()
	s2 := newClusterSession(t, c2)
	if v, _, err := s2.Get(key); err != nil || string(v) != "parked" {
		t.Fatalf("after reopen %s = %q, %v; want \"parked\"", key, v, err)
	}
	requireAll(t, s2, "old")
	assertSingleOwner(t, c2)
}

// A resize whose ring.json cannot be written aborts on the old ring, and
// writes made after it read back once the cluster reopens.
func TestResizeManifestFailureKeepsWrites(t *testing.T) {
	cfg := ClusterConfig{Shards: 2, VirtualNodes: 8, Dir: t.TempDir(),
		Store: Config{HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16}}
	c, err := CreateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := resizeSession(t, c)
	setAll(t, s, "old")
	blocker := filepath.Join(cfg.Dir, ringManifestName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Resize(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err == nil {
		t.Fatal("the resize completed without writing its manifest")
	}
	if got := c.Ring().Shards(); got != 2 {
		t.Errorf("ring = %d shards after a failed manifest write, want 2", got)
	}
	setAll(t, s, "new")
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Shutdown()
	requireAll(t, newClusterSession(t, c2), "new")
	assertSingleOwner(t, c2)
}

// A resize asked for while a shard is poisoned is refused, naming the
// shard, instead of starting a migration that cannot walk it; once the
// supervisor has rebuilt the shard the same resize completes.
func TestResizeRefusesPoisonedShard(t *testing.T) {
	defer faultpoint.DisarmAll()
	c := newTestCluster(t, 2, supervisorTestConfig())
	poisonShard(t, c, 1)
	faultpoint.DisarmAll()
	err := c.Resize(3)
	if err == nil {
		t.Fatal("Resize accepted with shard 1 poisoned")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("refusal %q does not name shard 1", err)
	}
	c.SuperviseOnce()
	if st := c.State(1); st != ShardHealthy {
		t.Fatalf("shard 1 state %d after the supervisor pass, want healthy", st)
	}
	if err := c.Resize(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Ring().Shards(); got != 3 {
		t.Fatalf("ring = %d shards, want 3", got)
	}
}
