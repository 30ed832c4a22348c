package pku

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"plibmc/internal/shm"
)

// Concurrency coverage for the virtual key table (ISSUE 7 satellite):
// Bind/Unbind/eviction racing across goroutines, pin exhaustion as typed
// backpressure under contention, and the mapping-generation rollover.
// These tests are written to run under -race (make gatehard does).

// TestVTableConcurrentBindUnbind: eight threads hammer a 24-domain table
// (over 14 bindable hardware keys, so evictions interleave with binds).
// Invariant under test: while a thread holds a pin, its domain's pages are
// tagged with the returned hardware key and readable through a register
// granting it — no eviction may move a pinned mapping.
func TestVTableConcurrentBindUnbind(t *testing.T) {
	const (
		domains = 24
		workers = 8
		iters   = 300
	)
	heap, pt, vt := vtFixture(t, domains)
	g := NewGuard(heap, pt)
	vkeys := make([]VKey, domains)
	for i := range vkeys {
		vkeys[i] = vt.AllocVirtual()
		if err := vt.AssignVirtual(vkeys[i], uint64(i)*shm.PageSize, shm.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				d := rng.Intn(domains)
				hw, err := vt.Bind(vkeys[d])
				if err != nil {
					// At most `workers` pins exist at once, well under the
					// 14 bindable keys: exhaustion here is a table bug.
					t.Errorf("worker %d bind domain %d: %v", w, d, err)
					return
				}
				off := uint64(d) * shm.PageSize
				if k := pt.KeyAt(off); k != hw {
					t.Errorf("worker %d: pinned domain %d tagged %d, want %d", w, d, k, hw)
				}
				if _, err := g.Load64(AllRestricted().WithAccess(hw), off); err != nil {
					t.Errorf("worker %d: pinned domain %d unreadable: %v", w, d, err)
				}
				vt.Unbind(vkeys[d])
			}
		}(w)
	}
	wg.Wait()
	if vt.Evictions() == 0 {
		t.Fatal("24 domains over 14 hardware keys raced without one eviction")
	}
	// Quiesced: every domain still reachable, unmapped ones fence-tagged.
	for i, v := range vkeys {
		off := uint64(i) * shm.PageSize
		if hw, ok := vt.Mapped(v); ok {
			if k := pt.KeyAt(off); k != hw {
				t.Fatalf("domain %d mapped to %d but tagged %d", i, hw, k)
			}
		} else if k := pt.KeyAt(off); k != vt.Fence() {
			t.Fatalf("unmapped domain %d tagged %d, want fence %d", i, k, vt.Fence())
		}
		if _, err := vt.Bind(v); err != nil {
			t.Fatalf("domain %d unbindable after the race: %v", i, err)
		}
		vt.Unbind(v)
	}
}

// TestVTableConcurrentPinExhaustion: twenty threads race to pin distinct
// domains on a table with exactly 14 bindable hardware keys. Exactly 14
// must win; every loser must see ErrAllKeysPinned (typed, retryable
// backpressure — never a different error, never a panic); and once the
// winners release, the losers' domains bind fine.
func TestVTableConcurrentPinExhaustion(t *testing.T) {
	const claimants = 20
	_, _, vt := vtFixture(t, claimants)
	vkeys := make([]VKey, claimants)
	for i := range vkeys {
		vkeys[i] = vt.AllocVirtual()
		if err := vt.AssignVirtual(vkeys[i], uint64(i)*shm.PageSize, shm.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		pinned  atomic.Int64
		refused atomic.Int64
	)
	won := make([]bool, claimants)
	for i := range vkeys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, err := vt.Bind(vkeys[i])
			switch {
			case err == nil:
				pinned.Add(1)
				won[i] = true
			case errors.Is(err, ErrAllKeysPinned):
				refused.Add(1)
			default:
				t.Errorf("claimant %d: %v, want nil or ErrAllKeysPinned", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if pinned.Load() != 14 || refused.Load() != claimants-14 {
		t.Fatalf("pinned %d / refused %d claimants, want 14 / %d",
			pinned.Load(), refused.Load(), claimants-14)
	}
	for i, v := range vkeys {
		if won[i] {
			vt.Unbind(v)
		}
	}
	// Backpressure was transient: every refused claimant binds now.
	for i, v := range vkeys {
		if won[i] {
			continue
		}
		if _, err := vt.Bind(v); err != nil {
			t.Fatalf("claimant %d still refused after release: %v", i, err)
		}
		vt.Unbind(v)
	}
}

// TestVTableGenerationRollover: the mapping generation is compared for
// inequality, not order — after 2^64 remaps it wraps through zero and a
// thread whose cached generation is MaxUint64 must still read the next
// remap as stale. SetGenForTest stands in for the 2^64 remaps.
func TestVTableGenerationRollover(t *testing.T) {
	_, pt, vt := vtFixture(t, 4)
	vt.SetGenForTest(math.MaxUint64)
	cached := vt.Gen() // a thread syncing now caches MaxUint64
	v := vt.AllocVirtual()
	if err := vt.AssignVirtual(v, 0, shm.PageSize); err != nil {
		t.Fatal(err)
	}
	hw, err := vt.Bind(v)
	if err != nil {
		t.Fatal(err)
	}
	defer vt.Unbind(v)
	if g := vt.Gen(); g != 0 {
		t.Fatalf("generation after rollover remap = %d, want 0", g)
	}
	// The wrapped generation still differs from the cached one: the
	// lazy-sync staleness test (!=) survives the rollover. An ordered
	// comparison (cached < current) would report the thread fresh here.
	if vt.Gen() == cached {
		t.Fatal("rollover produced an equal generation; staleness is undetectable")
	}
	if k := pt.KeyAt(0); k != hw {
		t.Fatalf("page tagged %d after rollover remap, want %d", k, hw)
	}
}

// raceDomain is one tenant of TestVTableLockFreePinOracle: a virtual key
// with a page of its own. retiring is raised before the key is freed or
// revoked, so a holder that sees its pin torn away can tell a revocation
// (legitimate) from an eviction of a pinned mapping (the bug).
type raceDomain struct {
	v        VKey
	page     uint64
	retiring atomic.Bool
}

// TestVTableLockFreePinOracle (ISSUE 21): the warm Bind is a CAS on the pin
// word with no table lock, so everything the lock used to make atomic is
// checked here against an oracle while it races. Six binders pin, inspect
// and unpin 24 domains over 14 bindable hardware keys (so evictions run
// throughout) while two churners replace domains by FreeVirtual, or by
// Revoke under a holder's feet, and re-AllocVirtual. While a pin is held:
// the hardware key is real, the domain's page is tagged with it, and no
// other pinned virtual key maps to it.
func TestVTableLockFreePinOracle(t *testing.T) {
	const (
		domains  = 24
		binders  = 6
		churners = 2
		iters    = 400
		churns   = 60
	)
	_, pt, vt := vtFixture(t, domains+churners*churns)
	var nextPage atomic.Uint64
	newDomain := func() *raceDomain {
		d := &raceDomain{v: vt.AllocVirtual(), page: nextPage.Add(1) - 1}
		if err := vt.AssignVirtual(d.v, d.page*shm.PageSize, shm.PageSize); err != nil {
			t.Error(err)
		}
		return d
	}
	var slots [domains]atomic.Pointer[raceDomain]
	for i := range slots {
		slots[i].Store(newDomain())
	}
	// bind is Bind with today's contract for a key that no longer exists —
	// a panic — turned into a result.
	bind := func(v VKey) (hw Key, err error, gone bool) {
		defer func() {
			if r := recover(); r != nil {
				msg, _ := r.(string)
				if !strings.Contains(msg, "unknown virtual key") {
					panic(r)
				}
				gone = true
			}
		}()
		hw, err = vt.Bind(v)
		return hw, err, false
	}
	var wg sync.WaitGroup
	for w := 0; w < binders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				d := slots[rng.Intn(domains)].Load()
				hw, err, gone := bind(d.v)
				if gone {
					if !d.retiring.Load() {
						t.Errorf("binder %d: key %d vanished without being retired", w, d.v)
					}
					continue
				}
				if err != nil {
					// At most `binders` pins are live at once, under the 14
					// bindable keys: exhaustion here means the table counted
					// a pin that nobody holds.
					t.Errorf("binder %d: bind key %d: %v", w, d.v, err)
					return
				}
				if hw == KeyDefault || hw == vt.Fence() {
					t.Errorf("binder %d: key %d bound to reserved hardware key %d", w, d.v, hw)
				}
				if k := pt.KeyAt(d.page * shm.PageSize); k != hw && !d.retiring.Load() {
					t.Errorf("binder %d: pinned key %d on hw %d but its page is tagged %d", w, d.v, hw, k)
				}
				for j := range slots {
					o := slots[j].Load()
					if o == d {
						continue
					}
					st := vt.lookup(o.v)
					if st == nil {
						continue
					}
					if ow := st.word.Load(); ow >= pinOne && ow&pinDead == 0 && Key(ow&pinHW) == hw && !d.retiring.Load() {
						t.Errorf("binder %d: pinned keys %d and %d share hardware key %d", w, d.v, o.v, hw)
					}
				}
				vt.Unbind(d.v) // a no-op if the key was revoked meanwhile
			}
		}(w)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < churns; i++ {
				// Each churner owns its own slots, so a domain is retired once.
				slot := c + churners*rng.Intn(domains/churners)
				old := slots[slot].Load()
				slots[slot].Store(newDomain())
				old.retiring.Store(true)
				if i%2 == 0 {
					vt.Revoke(old.v)
				} else if err := vt.FreeVirtual(old.v); err != nil {
					vt.Revoke(old.v) // a binder holds it: tear it down anyway
				}
			}
		}(c)
	}
	wg.Wait()
	if vt.Evictions() == 0 {
		t.Fatal("24 domains over 14 hardware keys raced without one eviction")
	}
	// Quiescence: no pin survives its holder, every domain still binds, and
	// warm rebinds of a mapped key move neither the generation nor a mapping.
	for i := range slots {
		d := slots[i].Load()
		if n := vt.Pins(d.v); n != 0 {
			t.Fatalf("key %d holds %d pins at quiescence", d.v, n)
		}
	}
	d := slots[0].Load()
	if _, err := vt.Bind(d.v); err != nil {
		t.Fatal(err)
	}
	vt.Unbind(d.v)
	g, ev := vt.Gen(), vt.Evictions()
	for w := 0; w < binders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := vt.Bind(d.v); err != nil {
					t.Error(err)
					return
				}
				vt.Unbind(d.v)
			}
		}()
	}
	wg.Wait()
	if vt.Gen() != g || vt.Evictions() != ev {
		t.Fatalf("warm rebinds moved the table: gen %d -> %d, evictions %d -> %d", g, vt.Gen(), ev, vt.Evictions())
	}
	// ErrAllKeysPinned means what it says: it appears exactly when the last
	// bindable hardware key takes a pin, not one bind earlier.
	pinned := 0
	for i := range slots {
		_, err := vt.Bind(slots[i].Load().v)
		if err == nil {
			pinned++
			continue
		}
		if !errors.Is(err, ErrAllKeysPinned) {
			t.Fatal(err)
		}
		break
	}
	if want := NumKeys - 2; pinned != want { // all but the default key and the fence
		t.Fatalf("ErrAllKeysPinned after %d pins, want %d (every bindable key)", pinned, want)
	}
}
