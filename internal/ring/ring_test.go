package ring

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	a, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(4, 0)
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		sa, sb := a.Shard(k), b.Shard(k)
		if sa != sb {
			t.Fatalf("key %q maps to %d and %d on identical rings", k, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("key %q maps to out-of-range shard %d", k, sa)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, _ := New(4, 0)
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Shard([]byte(fmt.Sprintf("bal-%d", i)))]++
	}
	mean := float64(n) / 4
	for s, c := range counts {
		if ratio := float64(c) / mean; ratio < 0.7 || ratio > 1.3 {
			t.Errorf("shard %d holds %d keys (%.2fx mean) — ring badly unbalanced: %v",
				s, c, ratio, counts)
		}
	}
}

func TestRingRejectsBadShardCount(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := New(n, 0); err == nil {
			t.Errorf("New(%d) accepted", n)
		}
	}
}

// Growing N→N+1 must move only ~1/(N+1) of the keyspace (the consistent-
// hashing contract); a modulo router would move (N)/(N+1).
func TestRingResizeMovesMinimalKeys(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		old, _ := New(n, 0)
		grown, _ := New(n+1, 0)
		moved := 0
		const samples = 20000
		for i := 0; i < samples; i++ {
			k := []byte(fmt.Sprintf("resize-%d", i))
			os, ns := old.Shard(k), grown.Shard(k)
			if os != ns {
				moved++
				// Consistent hashing only ever moves keys *to* the new
				// shard on growth; an old→old move means the ring is
				// reshuffling keys it shouldn't.
				if ns != n {
					t.Fatalf("N=%d: key %q moved %d→%d, not to the new shard", n, k, os, ns)
				}
			}
		}
		frac := float64(moved) / samples
		ideal := 1 / float64(n+1)
		if frac > 1.5*ideal {
			t.Errorf("N=%d→%d moved %.3f of keyspace, want ≤ %.3f (1.5×ideal %.3f)",
				n, n+1, frac, 1.5*ideal, ideal)
		}
		if frac == 0 {
			t.Errorf("N=%d→%d moved nothing — new shard owns no keys", n, n+1)
		}
		if mf := MovedFraction(old, grown, 20000); mf > 1.5*ideal || mf == 0 {
			t.Errorf("MovedFraction = %.3f, want (0, %.3f]", mf, 1.5*ideal)
		}
	}
}

func TestRingPlan(t *testing.T) {
	a, _ := New(4, 0)
	// Identical rings: empty plan.
	if p := Plan(a, a); len(p) != 0 {
		t.Fatalf("Plan(r, r) = %d segments, want 0", len(p))
	}
	b, _ := New(5, 0)
	plan := Plan(a, b)
	if len(plan) == 0 {
		t.Fatal("growth plan is empty")
	}
	for _, seg := range plan {
		if seg.From == seg.To {
			t.Fatalf("no-op segment in plan: %+v", seg)
		}
		if seg.To != 4 {
			t.Fatalf("growth segment moves to shard %d, want only to new shard 4: %+v", seg.To, seg)
		}
	}
	// The plan must agree with direct ownership for sampled keys: a key
	// whose owner changed falls in some segment with matching From/To.
	inSeg := func(h uint64, s Segment) bool {
		if s.Start < s.End {
			return h > s.Start && h <= s.End
		}
		return h > s.Start || h <= s.End // wrapped arc
	}
	for i := 0; i < 20000; i++ {
		k := []byte(fmt.Sprintf("plan-%d", i))
		from, to := a.Shard(k), b.Shard(k)
		h := Hash(k)
		var got *Segment
		for j := range plan {
			if inSeg(h, plan[j]) {
				got = &plan[j]
				break
			}
		}
		if from == to {
			if got != nil {
				t.Fatalf("unmoved key %q covered by segment %+v", k, *got)
			}
			continue
		}
		if got == nil {
			t.Fatalf("moved key %q (%d→%d) not covered by any segment", k, from, to)
		}
		if got.From != from || got.To != to {
			t.Fatalf("key %q moves %d→%d but its segment says %d→%d", k, from, to, got.From, got.To)
		}
	}
}

// Property test over a matrix of ring pairs: the plan's arcs must cover
// the moved keyspace exactly (owner changed ⟺ hash in some planned
// segment with matching From/To, honoring the Start > End wrap rule) and
// be minimal — no two adjacent segments with the same movement, treating
// the plan as circular. The circular-adjacency half fails without the
// wrap-around merge: the i==0 arc (which starts at the last boundary) was
// emitted before the final segment it abuts across the top of the circle
// could merge with it.
func TestRingPlanCoversMovedKeyspaceExactly(t *testing.T) {
	type pair struct{ a, b, vn int }
	pairs := []pair{
		// vn=2 pairs where the final segment abuts the i==0 wrap arc with
		// the same movement — the wrap-around merge must fold them.
		{1, 2, 2}, {1, 3, 2}, {1, 4, 2}, {2, 1, 2},
		// Denser rings: coverage + minimality at realistic vnode counts.
		{4, 6, 2}, {4, 6, 8}, {4, 5, 16}, {6, 4, 8}, {2, 3, 128},
	}
	sawWrapped := false
	for _, pc := range pairs {
		a, _ := New(pc.a, pc.vn)
		b, _ := New(pc.b, pc.vn)
		plan := Plan(a, b)
		if len(plan) == 0 {
			t.Fatalf("%d→%d vn=%d: empty plan for differing rings", pc.a, pc.b, pc.vn)
		}
		// Minimality: no circularly-adjacent same-movement segments.
		for i := range plan {
			next := plan[(i+1)%len(plan)]
			if plan[i].End == next.Start && plan[i].From == next.From && plan[i].To == next.To &&
				len(plan) > 1 {
				t.Errorf("%d→%d vn=%d: segments %d and %d are adjacent with the same movement %d→%d — unmerged",
					pc.a, pc.b, pc.vn, i, (i+1)%len(plan), plan[i].From, plan[i].To)
			}
			if plan[i].Start > plan[i].End {
				sawWrapped = true
			}
		}
		// Exact coverage on sampled keys.
		for i := 0; i < 20000; i++ {
			k := []byte(fmt.Sprintf("cover-%d-%d", pc.vn, i))
			from, to := a.Shard(k), b.Shard(k)
			h := Hash(k)
			var got *Segment
			for j := range plan {
				if plan[j].Contains(h) {
					got = &plan[j]
					break
				}
			}
			if from == to {
				if got != nil {
					t.Fatalf("%d→%d vn=%d: unmoved key %q covered by %+v", pc.a, pc.b, pc.vn, k, *got)
				}
				continue
			}
			if got == nil {
				t.Fatalf("%d→%d vn=%d: moved key %q (%d→%d) not covered", pc.a, pc.b, pc.vn, k, from, to)
			}
			if got.From != from || got.To != to {
				t.Fatalf("%d→%d vn=%d: key %q moves %d→%d but its segment says %d→%d",
					pc.a, pc.b, pc.vn, k, from, to, got.From, got.To)
			}
		}
	}
	if !sawWrapped {
		t.Fatal("no wrapped (Start > End) segment across the whole matrix — the wrap-merge fixture went stale")
	}
}

// ownerRef is the lookup the ring used before its circle was indexed: a
// binary search over the sorted points. Placement, resize plans and
// checkpoint reopen all depend on the indexed lookup agreeing with it.
func ownerRef(r *Ring, h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// TestRingOwnerMatchesBinarySearch (ISSUE 21): the indexed Owner returns
// the reference's shard for random hashes and for every edge the index
// introduces — both ends of the circle, each point and its neighbours, and
// each bucket boundary and its neighbours.
func TestRingOwnerMatchesBinarySearch(t *testing.T) {
	randoms := 1_000_000
	if testing.Short() {
		randoms = 50_000
	}
	for _, shards := range []int{1, 2, 3, 4, 7, 64} {
		for _, vnodes := range []int{1, 128} {
			r, err := New(shards, vnodes)
			if err != nil {
				t.Fatal(err)
			}
			check := func(h uint64) {
				if got, want := r.Owner(h), ownerRef(r, h); got != want {
					t.Fatalf("%d shards x %d vnodes: Owner(%#x) = %d, binary search says %d", shards, vnodes, h, got, want)
				}
			}
			check(0)
			check(^uint64(0))
			for _, p := range r.points {
				check(p.hash - 1)
				check(p.hash)
				check(p.hash + 1)
			}
			for b := uint64(0); b < 1<<indexBits; b++ {
				edge := b << (64 - indexBits)
				check(edge - 1)
				check(edge)
				check(edge + 1)
			}
			rng := rand.New(rand.NewSource(int64(shards*1000 + vnodes)))
			for i := 0; i < randoms; i++ {
				check(rng.Uint64())
			}
		}
	}
}

// BenchmarkRingShard is the routing hot path: one hash, one index load and
// a short scan of the vnode points.
func BenchmarkRingShard(b *testing.B) {
	r, err := New(4, DefaultVirtualNodes)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench%04d", i))
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Shard(keys[i%1024])
	}
	_ = sink
}

// Hash's bits are persisted: ring.json's points and every item header's
// stored hash (the store's chain hash is this function). A change to any
// of these values is an image format change, not a refactor.
func TestHashGolden(t *testing.T) {
	for _, tc := range []struct {
		key  string
		want uint64
	}{
		{"", 0xefd01f60ba992926},
		{"a", 0x82a2a958a9bece5b},
		{"user0000000000000001", 0xed49604f9c35345b},
		{"key-000", 0xdb6d5deeea28ee27},
		{"shard-3#17", 0x524761eb12547502},
	} {
		if got := Hash([]byte(tc.key)); got != tc.want {
			t.Errorf("Hash(%q) = %#016x, want %#016x", tc.key, got, tc.want)
		}
	}
}
