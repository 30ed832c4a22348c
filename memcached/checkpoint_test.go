package memcached

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/faultpoint"
	"plibmc/internal/shm"
)

func TestCheckpointWhileServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.img")
	b, err := CreateStore(Config{HeapBytes: 16 << 20, Path: path, HashPower: 10, NumItemLocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	cp, _ := b.NewClientProcess(1000)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var lastWritten [4]atomic.Int64
	for w := 0; w < 4; w++ {
		s, err := cp.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, s *Session) {
			defer wg.Done()
			defer s.Close()
			for i := 0; !stop.Load(); i++ {
				k := []byte(fmt.Sprintf("w%d-%06d", id, i))
				if err := s.Set(k, []byte("data"), 0, 0); err != nil {
					t.Error(err)
					return
				}
				lastWritten[id].Store(int64(i))
			}
		}(w, s)
	}

	// Take several live checkpoints under load.
	for i := 0; i < 5; i++ {
		time.Sleep(5 * time.Millisecond)
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	var atCkpt [4]int64
	for i := range atCkpt {
		atCkpt[i] = lastWritten[i].Load()
	}
	stop.Store(true)
	wg.Wait()

	// Recover from the last checkpoint: everything written before it must
	// be present and intact (later writes may or may not be).
	b2, err := OpenStore(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Shutdown()
	cp2, _ := b2.NewClientProcess(1000)
	s2, _ := cp2.NewSession()
	defer s2.Close()
	for id := 0; id < 4; id++ {
		for i := int64(0); i < atCkpt[id]-1; i++ {
			k := []byte(fmt.Sprintf("w%d-%06d", id, i))
			if v, _, err := s2.Get(k); err != nil || string(v) != "data" {
				t.Fatalf("writer %d record %d lost after recovery: %q, %v", id, i, v, err)
			}
		}
	}
	// The recovered store accepts new work.
	if err := s2.Set([]byte("post-recovery"), []byte("ok"), 0, 0); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint slot left behind by the previous image format is refused by
// version: OpenStore passes over it, however new its generation, to the
// slot that loads, and with nothing else on disk it says why it gave up.
func TestOpenStoreSkipsOldImageVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.img")
	cfg := Config{HeapBytes: 4 << 20, Path: path, HashPower: 8, NumItemLocks: 16}
	b, err := CreateStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := b.NewClientProcess(1000)
	s, _ := cp.NewSession()
	if err := s.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := b.Shutdown(); err != nil { // generation 1
		t.Fatal(err)
	}
	good, old := shm.CheckpointSlot(path, 1), shm.CheckpointSlot(path, 2)
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(img[8:], 2)  // version
	binary.LittleEndian.PutUint64(img[16:], 2) // generation
	if err := os.WriteFile(old, img, 0o644); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenStore(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	cp2, _ := b2.NewClientProcess(1000)
	s2, _ := cp2.NewSession()
	if v, _, err := s2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after reopen = %q, %v", v, err)
	}
	s2.Close()
	// Not Shutdown: that would checkpoint generation 2 over the old slot.
	b2.StopMaintenance()

	if err := os.Remove(good); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(Config{Path: path}); err == nil ||
		!strings.Contains(err.Error(), shm.ErrImageVersion.Error()) {
		t.Fatalf("OpenStore with only a v2 image: err = %v", err)
	}
}

func TestCheckpointRequiresPath(t *testing.T) {
	b := newTestStore(t)
	if err := b.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a backing file should fail")
	}
}

func TestPeriodicCheckpointing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "periodic.img")
	b, err := CreateStore(Config{HeapBytes: 8 << 20, Path: path, HashPower: 9, NumItemLocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := b.NewClientProcess(1000)
	s, _ := cp.NewSession()
	if err := s.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	errs := b.StartCheckpointing(5 * time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	b.StopCheckpointing()
	b.StopCheckpointing() // idempotent
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	s.Close()
	b.StopMaintenance()

	// A "crash" now (no Shutdown flush): the periodic checkpoint already
	// persisted the write.
	b2, err := OpenStore(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Shutdown()
	cp2, _ := b2.NewClientProcess(1000)
	s2, _ := cp2.NewSession()
	defer s2.Close()
	if v, _, err := s2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("checkpointed write lost: %q, %v", v, err)
	}
}

// TestCheckpointRefusedDuringRepair drives a checkpoint while a structural
// repair is in flight and asserts it refuses with ErrRecovering instead of
// persisting half-rebuilt chains (or deadlocking against the repair
// coordinator, which spins on the same mutex). The repair is pinned
// in flight by holding the repair mutex from the test: the coordinator
// parks in its TryLock spin with the library in the Recovering state.
func TestCheckpointRefusedDuringRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repair-ckpt.img")
	b, err := CreateStore(Config{HeapBytes: 16 << 20, Path: path, HashPower: 8, NumItemLocks: 16, CallTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	doomed := newTestSession(t, b)
	s := newTestSession(t, b)
	if err := s.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}

	// Pin the repair coordinator out of the repair mutex, then crash a call
	// inside the library. The library enters Recovering and stays there
	// until the mutex frees.
	b.repairMu.Lock()
	lockHeld := make(chan struct{})
	release := make(chan struct{})
	if err := faultpoint.Arm("ops.store.locked", func() {
		close(lockHeld)
		<-release
		panic("injected crash: ops.store.locked")
	}); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()
	crashDone := make(chan error, 1)
	go func() { crashDone <- doomed.Set([]byte("doomed"), []byte("v"), 0, 0) }()
	<-lockHeld
	close(release)
	if err := <-crashDone; err == nil {
		t.Fatal("crashed call returned nil error")
	}
	faultpoint.DisarmAll()
	deadline := time.Now().Add(5 * time.Second)
	for !b.lib.Recovering() {
		if time.Now().After(deadline) {
			b.repairMu.Unlock()
			t.Fatal("library never entered the Recovering state")
		}
		time.Sleep(time.Millisecond)
	}

	// The checkpoint must refuse promptly — before touching the repair
	// mutex (which the test holds on the coordinator's behalf).
	if err := b.Checkpoint(); err != ErrRecovering {
		b.repairMu.Unlock()
		t.Fatalf("checkpoint during repair = %v, want ErrRecovering", err)
	}
	if b.ckptGen != 0 {
		b.repairMu.Unlock()
		t.Fatalf("refused checkpoint advanced the generation to %d", b.ckptGen)
	}

	// Release the repair; it must complete and restore service.
	b.repairMu.Unlock()
	for b.lib.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("library did not leave the Recovering state")
		}
		time.Sleep(time.Millisecond)
	}
	if b.lib.Poisoned() {
		t.Fatal("library poisoned; repair should have succeeded")
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after repair: %v", err)
	}
	if m := b.Metrics(); m.Checkpoint.Checkpoints != 1 || m.Checkpoint.LastGeneration != 1 {
		t.Fatalf("checkpoint metrics = %+v", m.Checkpoint)
	}

	// The image taken after repair round-trips.
	b2, err := OpenStore(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Shutdown()
	if b2.CheckpointGeneration() != 1 {
		t.Fatalf("reopened generation = %d, want 1", b2.CheckpointGeneration())
	}
	s2 := newTestSession(t, b2)
	if v, _, err := s2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("post-repair checkpoint lost data: %q, %v", v, err)
	}
}

func TestSessionMGet(t *testing.T) {
	b := newTestStore(t)
	s := newTestSession(t, b)
	for i := 0; i < 6; i += 2 {
		if err := s.Set([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.MGet([][]byte{[]byte("k0"), []byte("k1"), []byte("k2"), []byte("k4")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || !res[0].Found || res[1].Found || !res[2].Found || !res[3].Found {
		t.Fatalf("mget = %+v", res)
	}
	if string(res[0].Value) != "v0" || string(res[3].Value) != "v4" {
		t.Fatalf("mget values = %q %q", res[0].Value, res[3].Value)
	}
	// One trampoline crossing for the whole batch: wrpkru twice total.
	cp, _ := b.NewClientProcess(1500)
	s2, _ := cp.NewSession()
	defer s2.Close()
	before := cp.Process().WRPKRUCount()
	if _, err := s2.MGet([][]byte{[]byte("k0"), []byte("k2"), []byte("k4")}); err != nil {
		t.Fatal(err)
	}
	if n := cp.Process().WRPKRUCount() - before; n != 2 {
		t.Fatalf("batched mget executed wrpkru %d times, want 2", n)
	}
	// Errors from a killed process propagate.
	cp.Kill()
	if _, err := s2.MGet([][]byte{[]byte("k0")}); err == nil {
		t.Fatal("mget on killed process should fail")
	}
	var ek error = err
	_ = errors.Is(ek, ek)
}
