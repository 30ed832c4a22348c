package pku

// Protection-key virtualization, after libmpk (Park et al., USENIX ATC '19;
// see PAPERS.md): hardware provides only 16 protection keys, so a process
// that wants more protection domains than keys must multiplex them. A
// VTable hands out an unbounded supply of *virtual* keys and maps the ones
// in active use onto hardware keys on demand, evicting the least recently
// used unpinned mapping when the hardware runs dry.
//
// Three libmpk ideas carry over into this simulation:
//
//   - The key-cache *hit* is a few loads and never serialises: a virtual
//     key's mapping and pins are one atomic word (the pin word, below), so
//     pinning a mapped key is one CAS, releasing it another, and the table
//     lock is taken only to map, evict, free or revoke.
//
//   - Eviction re-tags the victim's pages with a reserved *fence* key that
//     no thread is ever granted, so an access through a stale mapping
//     faults (ProtFault) instead of silently reading another domain's
//     pages through the recycled hardware key. A mapping is pinned while
//     any call into its domain is in flight, so a key can never be
//     recycled out from under an amplified thread.
//
//   - PKRU synchronization is lazy. Remapping a hardware key changes what
//     every thread's pkru register *means*, but instead of rewriting all
//     registers eagerly (a wrpkru storm proportional to threads × remaps),
//     each thread carries the table generation it last synchronized
//     against and scrubs its register only when it next crosses into a
//     virtualized domain and finds its generation stale. The Syncs counter
//     exists so tests can assert syncs ≪ domains × calls.

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// ErrAllKeysPinned is returned by Bind when no hardware key is free and every
// current mapping is pinned by an in-flight call. It is a transient overload
// condition, not a fault: callers should surface it as retryable backpressure
// (a later Bind succeeds as soon as any in-flight call retires and releases
// its pin).
var ErrAllKeysPinned = errors.New("pku: no hardware key available and every mapping is pinned")

// VKey is a virtual protection key: an unbounded analog of Key, valid only
// within the VTable that allocated it. Keys come from a 64-bit counter and
// are never reissued, so a key names one domain for the life of its table.
// Zero is never a valid VKey.
type VKey uint64

type vrange struct{ off, n uint64 }

// The pin word packs a virtual key's mapping and its pins into one atomic
// word, so the two can only ever change together:
//
//	bits 0–7    hardware key backing the mapping; 0 = unmapped
//	bit  8      dead: the key was freed or revoked (hardware key cleared)
//	bits 16–63  pins: in-flight calls holding the mapping
//
// Any thread may add a pin to a mapped word (Bind's fast path) or drop one
// (Unbind), lock-free. Every other transition needs vt.mu: unmapped →
// mapped with the first pin (a plain store — nobody else writes an unmapped
// word), mapped → unmapped (eviction: a CAS from the exact pins == 0 word,
// which a racing pin makes fail, so a hardware key is never pulled from
// under a caller), anything → dead (FreeVirtual by the same CAS, Revoke by a
// swap that discards a zombie's pins). Dead is final: Bind falls through to
// the slow path, which no longer finds the key, and Unbind is a no-op.
const (
	pinHW   = 0xff
	pinDead = 1 << 8
	pinOne  = 1 << 16
)

// vkeyState is one virtual key's mapping record. Every call that binds
// the key CASes its pin word twice, so 64 bytes of padding at each end
// keep the word off the lines of the other keys' records and of the
// states map beside them.
type vkeyState struct {
	_    [64]byte
	word atomic.Uint64 // the pin word
	// lastUse is vt.clock (remaps so far) as of the latest Bind: keys bound
	// since the last remap tie, keys idle since before it sort older.
	lastUse atomic.Uint64
	ranges  []vrange // page ranges tagged with this virtual key; guarded by vt.mu
	_       [64]byte
}

// pin adds one pin if the word is mapped, returning the hardware key.
func (st *vkeyState) pin(stamp uint64) (Key, bool) {
	for {
		w := st.word.Load()
		if w&pinHW == 0 {
			return 0, false
		}
		if st.word.CompareAndSwap(w, w+pinOne) {
			if st.lastUse.Load() != stamp {
				st.lastUse.Store(stamp)
			}
			return Key(w & pinHW), true
		}
	}
}

// VTable multiplexes virtual keys onto the page table's hardware keys.
// All methods are safe for concurrent use.
type VTable struct {
	// mu serialises mapping, eviction, free, revoke and range assignment.
	// Pinning an already-mapped key and unpinning never take it.
	mu    sync.Mutex
	pt    *PageTable
	fence Key // reserved hardware key backing every unmapped virtual key
	// states is copy-on-write: writers (holding mu; only session open and
	// close write) publish a modified copy, readers just load it.
	states atomic.Pointer[map[VKey]*vkeyState]
	nextV  VKey
	// free holds hardware keys owned by the table and not currently
	// backing any virtual key (only ever non-empty before first eviction).
	free  []Key
	clock atomic.Uint64 // remaps so far; the LRU stamp (written under mu)

	gen       atomic.Uint64 // bumped on every remap; drives lazy PKRU sync
	syncs     atomic.Uint64
	evictions atomic.Uint64
}

// NewVTable creates a virtual-key table over pt, reserving one hardware key
// as the fence that backs unmapped virtual keys.
func NewVTable(pt *PageTable) (*VTable, error) {
	fence, err := pt.Alloc()
	if err != nil {
		return nil, fmt.Errorf("pku: vtable fence key: %w", err)
	}
	vt := &VTable{pt: pt, fence: fence}
	vt.states.Store(&map[VKey]*vkeyState{})
	return vt, nil
}

// Fence returns the reserved fence key (granted to no thread, ever).
func (vt *VTable) Fence() Key { return vt.fence }

// AllocVirtual hands out a fresh virtual key. Unlike PageTable.Alloc it
// cannot run out.
func (vt *VTable) AllocVirtual() VKey {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	vt.nextV++
	next := maps.Clone(*vt.states.Load())
	next[vt.nextV] = &vkeyState{}
	vt.states.Store(&next)
	return vt.nextV
}

// lookup returns v's record, or nil once v has been freed or revoked.
func (vt *VTable) lookup(v VKey) *vkeyState { return (*vt.states.Load())[v] }

func (vt *VTable) state(v VKey) *vkeyState {
	st := vt.lookup(v)
	if st == nil {
		panic(fmt.Sprintf("pku: unknown virtual key %d", v))
	}
	return st
}

// AssignVirtual tags [off, off+n) with virtual key v: pages are re-tagged
// with v's current hardware key if mapped, or with the fence key if not,
// and the range is remembered so later mappings and evictions can re-tag.
func (vt *VTable) AssignVirtual(v VKey, off, n uint64) error {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	st := vt.state(v)
	st.ranges = append(st.ranges, vrange{off, n})
	k := vt.fence
	if hw := Key(st.word.Load() & pinHW); hw != 0 {
		k = hw
	}
	return vt.pt.Assign(off, n, k)
}

// Bind maps v onto a hardware key (evicting the least recently used
// unpinned mapping if none is free) and pins the mapping for the duration
// of a call. Every Bind must be paired with an Unbind. A key that is
// already mapped — the steady state — is pinned without the table lock.
func (vt *VTable) Bind(v VKey) (Key, error) {
	if st := vt.lookup(v); st != nil {
		if hw, ok := st.pin(vt.clock.Load()); ok {
			return hw, nil
		}
	}
	vt.mu.Lock()
	defer vt.mu.Unlock()
	st := vt.state(v)
	if hw, ok := st.pin(vt.clock.Load()); ok {
		return hw, nil // mapped while this caller waited for mu
	}
	hw, err := vt.mapLocked(st)
	if err != nil {
		return 0, err
	}
	st.lastUse.Store(vt.clock.Add(1))
	st.word.Store(uint64(hw) | pinOne)
	return hw, nil
}

// Unbind releases the pin taken by Bind. The mapping stays in place (warm)
// until eviction needs its hardware key. Unbind of a key that Revoke tore
// down mid-call is a silent no-op: the revocation already dropped the pin
// along with the mapping, and the unwinding caller must not panic again.
func (vt *VTable) Unbind(v VKey) {
	st := vt.lookup(v)
	if st == nil {
		return // revoked while the call was in flight
	}
	for {
		w := st.word.Load()
		if w&pinDead != 0 {
			return // revoked between the lookup and here
		}
		if w < pinOne {
			panic(fmt.Sprintf("pku: unbind of unpinned virtual key %d", v))
		}
		if st.word.CompareAndSwap(w, w-pinOne) {
			return
		}
	}
}

// mapLocked finds a hardware key for an unmapped virtual key: from the free
// pool, from pkey_alloc, or by evicting the LRU unpinned mapping. The
// caller re-tags nothing; this routine moves the pages of both the victim
// (to the fence) and the incoming key (to the hardware key). The caller
// publishes the incoming key's word only afterwards, so no fast-path Bind
// can pin a mapping whose pages are not yet tagged.
func (vt *VTable) mapLocked(st *vkeyState) (Key, error) {
	var hw Key
	switch {
	case len(vt.free) > 0:
		hw = vt.free[len(vt.free)-1]
		vt.free = vt.free[:len(vt.free)-1]
	default:
		if k, err := vt.pt.Alloc(); err == nil {
			hw = k
		} else {
			victim, k := vt.claimVictimLocked()
			if victim == nil {
				return 0, ErrAllKeysPinned
			}
			for _, r := range victim.ranges {
				if err := vt.pt.Assign(r.off, r.n, vt.fence); err != nil {
					return 0, err
				}
			}
			hw = k
			vt.evictions.Add(1)
		}
	}
	for _, r := range st.ranges {
		if err := vt.pt.Assign(r.off, r.n, hw); err != nil {
			return 0, err
		}
	}
	// Any thread whose pkru predates this remap must scrub before its next
	// crossing: the hardware key's meaning just changed.
	vt.gen.Add(1)
	return hw, nil
}

// claimVictimLocked unmaps the mapped, unpinned virtual key with the oldest
// last use and returns it with the hardware key it held, or nil when every
// mapping is pinned. The claim is a CAS from the pins == 0 word the scan
// saw: a Bind that pinned the candidate since makes it fail, and the victim
// is chosen again. Once claimed the word reads unmapped, so later Binds of
// the victim queue on mu behind the re-tagging.
func (vt *VTable) claimVictimLocked() (*vkeyState, Key) {
	for {
		var victim *vkeyState
		var vw uint64
		for _, st := range *vt.states.Load() {
			w := st.word.Load()
			if w&pinHW == 0 || w >= pinOne {
				continue
			}
			if victim == nil || st.lastUse.Load() < victim.lastUse.Load() {
				victim, vw = st, w
			}
		}
		if victim == nil {
			return nil, 0
		}
		if victim.word.CompareAndSwap(vw, 0) {
			return victim, Key(vw & pinHW)
		}
	}
}

// retireLocked finishes tearing down a key whose word the caller has just
// made dead: its pages revert to the fence key, the hardware key it held
// (if any) returns to the free pool, and the key leaves the table.
func (vt *VTable) retireLocked(v VKey, st *vkeyState, hw Key) {
	for _, r := range st.ranges {
		// Fence assignments cannot fail: the ranges were validated when first
		// assigned and the fence key is permanently allocated.
		vt.pt.Assign(r.off, r.n, vt.fence) //nolint:errcheck
	}
	if hw != 0 {
		vt.free = append(vt.free, hw)
	}
	next := maps.Clone(*vt.states.Load())
	delete(next, v)
	vt.states.Store(&next)
}

// FreeVirtual retires a virtual key: its pages revert to the fence key and
// its hardware key (if mapped) returns to the free pool.
func (vt *VTable) FreeVirtual(v VKey) error {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	st := vt.state(v)
	for {
		w := st.word.Load()
		if w >= pinOne {
			return fmt.Errorf("pku: freeing pinned virtual key %d", v)
		}
		if st.word.CompareAndSwap(w, pinDead) {
			vt.retireLocked(v, st, Key(w&pinHW))
			if w != 0 {
				vt.gen.Add(1)
			}
			return nil
		}
	}
}

// Revoke forcibly retires a virtual key, pins notwithstanding: its pages
// revert to the fence key, its hardware key (if mapped) returns to the free
// pool, and the generation advances so every thread scrubs before trusting
// its register again. This is the teardown path for *dead* domain owners —
// a reaped zombie or a killed process may still "hold" a pin it will never
// release, and waiting for it would leak a hardware key forever. Any Unbind
// the zombie's unwind later issues is a no-op (see Unbind). Revoking an
// unknown (already-revoked) key is a no-op.
func (vt *VTable) Revoke(v VKey) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	st := vt.lookup(v)
	if st == nil {
		return
	}
	w := st.word.Swap(pinDead)
	vt.retireLocked(v, st, Key(w&pinHW))
	vt.gen.Add(1)
}

// GrantsOwnedKey reports whether register p grants read access to any
// hardware key this table owns (the fence, a free-pool key, or a key
// currently backing some mapping). Application code outside a gate crossing
// must never hold such a grant — the trampoline is the only legitimate
// writer of amplified registers and it always restores the saved value on
// exit — so a true result identifies a forged or stale register (Garmr's
// stray-wrpkru attack class) that the gate must scrub rather than trust.
func (vt *VTable) GrantsOwnedKey(p PKRU) bool {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if p.CanRead(vt.fence) {
		return true
	}
	for _, k := range vt.free {
		if p.CanRead(k) {
			return true
		}
	}
	for _, st := range *vt.states.Load() {
		if hw := Key(st.word.Load() & pinHW); hw != 0 && p.CanRead(hw) {
			return true
		}
	}
	return false
}

// Pins reports the pin count currently held on v (0 for unknown keys).
func (vt *VTable) Pins(v VKey) int {
	if st := vt.lookup(v); st != nil {
		if w := st.word.Load(); w&pinDead == 0 {
			return int(w / pinOne)
		}
	}
	return 0
}

// SetGenForTest forces the mapping generation, so tests can exercise the
// lazy-sync protocol across a counter rollover without 2^64 remaps.
func (vt *VTable) SetGenForTest(g uint64) { vt.gen.Store(g) }

// Gen returns the current mapping generation. A thread whose cached
// generation differs must synchronize its pkru register before relying on
// hardware-key grants (the lazy-sync protocol; see package comment).
func (vt *VTable) Gen() uint64 { return vt.gen.Load() }

// NoteSync records one lazy PKRU synchronization (a thread scrubbing its
// register after observing a stale generation).
func (vt *VTable) NoteSync() { vt.syncs.Add(1) }

// Syncs returns how many lazy PKRU synchronizations threads performed.
func (vt *VTable) Syncs() uint64 { return vt.syncs.Load() }

// Evictions returns how many LRU evictions the table performed.
func (vt *VTable) Evictions() uint64 { return vt.evictions.Load() }

// Mapped reports whether v currently holds a hardware key, and which.
func (vt *VTable) Mapped(v VKey) (Key, bool) {
	hw := Key(vt.state(v).word.Load() & pinHW)
	return hw, hw != 0
}
