package plibmc

// Chaos test: the paper's core safety claim is that a store shared by
// independently failing processes survives any pattern of client crashes.
// This test runs waves of client processes against one store, killing a
// random subset mid-flight each wave, then verifies at the end of every
// wave that (a) the library never poisoned, (b) surviving processes can
// run the full operation mix, (c) the allocator's fsck passes, and (d)
// statistics remain self-consistent.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/faultpoint"
	"plibmc/internal/proc"
	"plibmc/memcached"
)

// chaosSeed makes failures reproducible: every run with the same seed
// kills the same processes at the same points in the schedule. The
// default is fixed (never time-derived) so plain `go test` is
// deterministic; sweep seeds with e.g. `go test -run Chaos -chaos.seed 7`.
var chaosSeed = flag.Int64("chaos.seed", 42, "PRNG seed for the chaos kill schedule")

func TestChaosKillsNeverCorrupt(t *testing.T) {
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 64 << 20, HashPower: 12, NumItemLocks: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.StartMaintenance(5 * time.Millisecond)
	defer book.StopMaintenance()

	rng := rand.New(rand.NewSource(*chaosSeed))
	waves := 5
	if testing.Short() {
		waves = 2 // the `make check` variant: same invariants, less soak
	}
	const procsPerWave = 4
	const threadsPerProc = 2
	t.Logf("chaos seed %d, %d waves", *chaosSeed, waves)

	for wave := 0; wave < waves; wave++ {
		var procs []*memcached.ClientProcess
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for p := 0; p < procsPerWave; p++ {
			cp, err := book.NewClientProcess(1000 + wave*10 + p)
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, cp)
			for th := 0; th < threadsPerProc; th++ {
				s, err := cp.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(id int, s *memcached.Session) {
					defer wg.Done()
					i := 0
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := []byte(fmt.Sprintf("w%d-k%d", wave, (id*37+i)%500))
						var err error
						switch i % 5 {
						case 0, 1:
							err = s.Set(k, []byte(fmt.Sprintf("v-%d-%d", id, i)), 0, 0)
						case 2:
							_, _, err = s.Get(k)
							if errors.Is(err, memcached.ErrNotFound) {
								err = nil
							}
						case 3:
							err = s.Delete(k)
							if errors.Is(err, memcached.ErrNotFound) {
								err = nil
							}
						case 4:
							_, err = s.Increment([]byte(fmt.Sprintf("ctr-%d", id%3)), 1)
							if errors.Is(err, memcached.ErrNotFound) {
								err = s.Add([]byte(fmt.Sprintf("ctr-%d", id%3)), []byte("0"), 0, 0)
								if errors.Is(err, memcached.ErrExists) {
									err = nil
								}
							}
						}
						if err != nil {
							var killed *proc.ErrKilled
							if errors.As(err, &killed) {
								return // our process died; expected
							}
							t.Errorf("wave %d worker %d: %v", wave, id, err)
							return
						}
						i++
					}
				}(p*threadsPerProc+th, s)
			}
		}

		// Let the wave run, then kill a random subset mid-flight.
		time.Sleep(3 * time.Millisecond)
		nKill := 1 + rng.Intn(procsPerWave-1)
		for _, idx := range rng.Perm(procsPerWave)[:nKill] {
			procs[idx].Kill()
		}
		time.Sleep(3 * time.Millisecond)
		close(stop)
		wg.Wait()

		// Invariants after the carnage.
		if book.Library().Poisoned() {
			t.Fatalf("wave %d: library poisoned by client kills", wave)
		}
		// Check requires a quiescent heap; a maintenance pass freeing
		// blocks under the walk reads as a block on two free lists.
		book.StopMaintenance()
		_, fsckErr := book.Allocator().Check()
		book.StartMaintenance(5 * time.Millisecond)
		if fsckErr != nil {
			t.Fatalf("wave %d: heap fsck failed: %v", wave, fsckErr)
		}
		verifier, err := book.NewClientProcess(9000 + wave)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := verifier.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		probe := []byte(fmt.Sprintf("probe-%d", wave))
		if err := vs.Set(probe, []byte("alive"), 0, 0); err != nil {
			t.Fatalf("wave %d: store not writable after kills: %v", wave, err)
		}
		if v, _, err := vs.Get(probe); err != nil || string(v) != "alive" {
			t.Fatalf("wave %d: store not readable after kills: %q %v", wave, v, err)
		}
		// Every surviving key must round-trip with internally consistent
		// contents (the value encodes its writer).
		checked := 0
		for i := 0; i < 500; i++ {
			k := []byte(fmt.Sprintf("w%d-k%d", wave, i))
			v, _, err := vs.Get(k)
			if errors.Is(err, memcached.ErrNotFound) {
				continue
			}
			if err != nil {
				t.Fatalf("wave %d key %s: %v", wave, k, err)
			}
			if len(v) < 2 || v[0] != 'v' {
				t.Fatalf("wave %d key %s: torn value %q", wave, k, v)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("wave %d: no keys survived at all", wave)
		}
		vs.Close()
	}

	// The gate must be fully drained: a checkpoint-style quiesce succeeds
	// promptly (all in-flight ops from killed processes completed).
	done := make(chan struct{})
	go func() {
		book.Store().Quiesce()
		book.Store().Unquiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gate never drained after chaos: an operation leaked")
	}
	st := book.Stats()
	t.Logf("chaos totals: %d gets, %d sets, %d deletes, %d items live",
		st.Gets, st.Sets, st.Deletes, st.CurrItems)
}

// TestChaosKillDuringCheckpoint kills the bookkeeper at every crash point
// inside the image writer, while client workers are live, and asserts the
// survivor of the crash — a fresh bookkeeper reloading from disk — always
// finds a verifying image whose every entry is internally consistent.
func TestChaosKillDuringCheckpoint(t *testing.T) {
	points := []string{}
	for _, p := range faultpoint.Names() {
		if strings.HasPrefix(p, "persist.") {
			points = append(points, p)
		}
	}
	if len(points) == 0 {
		t.Fatal("no persist.* fault points registered")
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			defer faultpoint.DisarmAll()
			path := filepath.Join(t.TempDir(), "store.img")
			book, err := memcached.CreateStore(memcached.Config{
				HeapBytes: 32 << 20, Path: path, HashPower: 10, NumItemLocks: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Self-describing values: a value must always decode to its own
			// key, whatever generation the survivor ends up on.
			val := func(k []byte, seq int) []byte {
				return []byte(fmt.Sprintf("v:%s:%d", k, seq))
			}
			cp, err := book.NewClientProcess(1001)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var sets atomic.Int64 // completed worker Sets
			for w := 0; w < 3; w++ {
				s, err := cp.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(id int, s *memcached.Session) {
					defer wg.Done()
					defer s.Close()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						k := []byte(fmt.Sprintf("w%d-k%d", id, i%400))
						if err := s.Set(k, val(k, i), 0, 0); err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
						sets.Add(1)
					}
				}(w, s)
			}
			// Each checkpoint waits for the workers' writes, not for a
			// time: a loaded box may not have scheduled them yet.
			awaitSets := func(n int64) {
				target := sets.Load() + n
				for deadline := time.Now().Add(30 * time.Second); sets.Load() < target; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						close(stop)
						t.Fatalf("workers completed %d of %d sets", sets.Load(), target)
					}
				}
			}
			awaitSets(100)
			if err := book.Checkpoint(); err != nil { // generation 1: intact
				t.Fatal(err)
			}
			awaitSets(100)

			// The bookkeeper dies at the armed point inside checkpoint 2,
			// with the workers still running.
			if err := faultpoint.Arm(point, func() {
				panic("chaos: bookkeeper dies at " + point)
			}); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("checkpoint completed; %s never fired", point)
					}
				}()
				_ = book.Checkpoint()
			}()
			faultpoint.DisarmAll()
			close(stop)
			wg.Wait()
			// No Shutdown: the dying bookkeeper flushes nothing.

			book2, err := memcached.OpenStore(memcached.Config{Path: path})
			if err != nil {
				t.Fatalf("survivor reload after death at %s: %v", point, err)
			}
			defer book2.Shutdown()
			if _, err := book2.Allocator().Check(); err != nil {
				t.Fatalf("survivor heap fsck: %v", err)
			}
			vp, err := book2.NewClientProcess(2001)
			if err != nil {
				t.Fatal(err)
			}
			vs, err := vp.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer vs.Close()
			found := 0
			for id := 0; id < 3; id++ {
				for i := 0; i < 400; i++ {
					k := []byte(fmt.Sprintf("w%d-k%d", id, i))
					v, _, err := vs.Get(k)
					if errors.Is(err, memcached.ErrNotFound) {
						continue
					}
					if err != nil {
						t.Fatalf("survivor key %s: %v", k, err)
					}
					if !bytes.HasPrefix(v, []byte(fmt.Sprintf("v:%s:", k))) {
						t.Fatalf("survivor key %s decoded to a foreign value %q", k, v)
					}
					found++
				}
			}
			if found == 0 {
				t.Fatal("no keys survived the checkpoint crash at all")
			}
			if err := vs.Set([]byte("post-crash"), []byte("alive"), 0, 0); err != nil {
				t.Fatalf("survivor not writable: %v", err)
			}
			if err := book2.Checkpoint(); err != nil {
				t.Fatalf("survivor cannot checkpoint: %v", err)
			}
			t.Logf("%s: survivor served %d keys after the mid-checkpoint death", point, found)
		})
	}
}
