// Package ring implements the consistent-hash ring that fans a keyspace
// across N protected-library store shards. Each shard contributes many
// virtual nodes (points) to a 64-bit hash circle; a key is owned by the
// shard whose first point is clockwise of the key's hash. Virtual nodes
// keep the per-shard load balanced and make resizes cheap: growing N→N+1
// moves only ~1/(N+1) of the keyspace, and Plan computes exactly which
// hash ranges move.
//
// The ring is deterministic — same (shards, vnodes) always yields the same
// mapping — because the proxy tier, the in-process Cluster handle, and
// offline tools (plibdump over a shard directory) must all agree on
// key placement without coordination.
package ring

import (
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the per-shard point count. 128 points per shard
// keeps the max/mean shard load under ~1.15 for the shard counts this
// system targets (4–64) while keeping Shard() lookups in a small sorted
// slice.
const DefaultVirtualNodes = 128

// point is one virtual node: a position on the hash circle and the shard
// that owns the arc ending at it.
type point struct {
	hash  uint64
	shard int
}

// Ring is an immutable consistent-hash ring over `shards` shards. Safe for
// concurrent use.
type Ring struct {
	shards int
	vnodes int
	points []point // sorted by hash
	// index[b] is the first point at or past the start of bucket b, the
	// 1/4096th of the circle whose hashes have b as their top 12 bits
	// (len(points) when there is none): a lookup starts there instead of
	// bisecting the whole slice.
	index [1 << indexBits]int32
}

const indexBits = 12

// New builds a ring with the given shard count and virtual nodes per shard
// (0 = DefaultVirtualNodes).
func New(shards, vnodesPerShard int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("ring: shard count %d must be positive", shards)
	}
	if vnodesPerShard <= 0 {
		vnodesPerShard = DefaultVirtualNodes
	}
	r := &Ring{shards: shards, vnodes: vnodesPerShard}
	r.points = make([]point, 0, shards*vnodesPerShard)
	var buf [32]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			n := fmt.Appendf(buf[:0], "shard-%d#%d", s, v)
			r.points = append(r.points, point{hash: Hash(n), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break deterministically by shard so
		// every party computes the same ownership.
		return r.points[i].shard < r.points[j].shard
	})
	i := 0
	for b := range r.index {
		for i < len(r.points) && r.points[i].hash>>(64-indexBits) < uint64(b) {
			i++
		}
		r.index[b] = int32(i)
	}
	return r, nil
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// VirtualNodes returns the per-shard virtual node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Shard maps a key to its owning shard: the shard of the first point at or
// clockwise of Hash(key), wrapping past the top of the circle.
func (r *Ring) Shard(key []byte) int {
	return r.owner(Hash(key))
}

// Owner maps an already-computed hash position to its owning shard. The
// migrator hashes a key once and then resolves it against a ring and the
// migration plan, so it needs ownership by position.
func (r *Ring) Owner(h uint64) int { return r.owner(h) }

// owner returns the shard owning hash position h: the first point with
// hash >= h, found by a short scan from the start of h's bucket.
func (r *Ring) owner(h uint64) int {
	i := int(r.index[h>>(64-indexBits)])
	for i < len(r.points) && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].shard
}

// Hash is the one key hash: the ring's placement hash and the store's
// chain hash (internal/core), FNV-1a 64-bit with a murmur3-style final mix.
// Raw FNV-1a avalanches poorly in the high bits on short, similar keys
// (exactly what vnode labels and sequential keys are), which skews arc
// ownership and the store's hash-selected LRU lists, chosen from the high
// bits; the finalizer restores uniformity. Stable across processes and
// builds (no seed), which the deterministic-placement contract requires;
// its bits are persisted in ring.json's points and in every item header,
// so a change to them is an image format change.
func Hash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Segment is one contiguous arc of the hash circle whose owner differs
// between two rings: keys hashing into (Start, End] move From→To during a
// resize. A segment with Start > End wraps past the top of the circle.
type Segment struct {
	Start, End uint64 // arc (Start, End], i.e. keys with Start < Hash(k) <= End
	From, To   int
}

// Contains reports whether hash position h falls inside the segment's
// arc (Start, End], honoring the Start > End wrap rule. A segment with
// Start == End covers the full circle (it can only arise from merging
// every arc, which requires every key to move).
func (s Segment) Contains(h uint64) bool {
	if s.Start < s.End {
		return h > s.Start && h <= s.End
	}
	return h > s.Start || h <= s.End
}

// Plan computes the rebalance plan from ring a to ring b: the minimal set
// of hash-circle arcs whose ownership changes. An empty plan means the
// rings agree everywhere (in particular Plan(r, r) is empty). Shards only
// present in one ring simply appear as From/To owners like any other.
func Plan(a, b *Ring) []Segment {
	// Ownership of an arc is constant between adjacent boundary points of
	// the *union* of both rings' point sets, so walking that union visits
	// every possible ownership change exactly once.
	bounds := make([]uint64, 0, len(a.points)+len(b.points))
	for _, p := range a.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range b.points {
		bounds = append(bounds, p.hash)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	// Dedup.
	uniq := bounds[:0]
	for i, h := range bounds {
		if i == 0 || h != uniq[len(uniq)-1] {
			uniq = append(uniq, h)
		}
	}
	bounds = uniq
	if len(bounds) == 0 {
		return nil
	}

	var plan []Segment
	// The arc ending at bounds[i] starts just after the previous boundary
	// (wrapping for i==0). Ownership of every key in (prev, cur] is the
	// owner of cur in each ring.
	for i, cur := range bounds {
		prev := bounds[(i+len(bounds)-1)%len(bounds)]
		from, to := a.owner(cur), b.owner(cur)
		if from == to {
			continue
		}
		// Merge with the previous segment when the arcs are adjacent and
		// the movement is the same — keeps plans compact.
		if n := len(plan); n > 0 && plan[n-1].End == prev &&
			plan[n-1].From == from && plan[n-1].To == to {
			plan[n-1].End = cur
			continue
		}
		plan = append(plan, Segment{Start: prev, End: cur, From: from, To: to})
	}
	// The i==0 arc starts at the *last* boundary (it wraps past the top of
	// the circle), so it is emitted before the segment it may be adjacent
	// to could exist. If the final segment ends exactly where the first one
	// starts and carries the same movement, they are one arc across the
	// top: fold the first into the last, producing a wrapped Start > End
	// segment.
	if n := len(plan); n > 1 {
		first, last := plan[0], plan[n-1]
		if first.Start == last.End && first.From == last.From && first.To == last.To {
			plan[n-1].End = first.End
			plan = plan[1:]
		}
	}
	return plan
}

// MovedFraction estimates, by sampling `samples` synthetic keys, the
// fraction of the keyspace whose owner differs between two rings — the
// figure of merit for a resize (ideally ~added/(new total)).
func MovedFraction(a, b *Ring, samples int) float64 {
	if samples <= 0 {
		samples = 1 << 16
	}
	moved := 0
	var buf [24]byte
	for i := 0; i < samples; i++ {
		k := fmt.Appendf(buf[:0], "sample-key-%d", i)
		if a.Shard(k) != b.Shard(k) {
			moved++
		}
	}
	return float64(moved) / float64(samples)
}
