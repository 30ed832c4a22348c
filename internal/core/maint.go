package core

import (
	"fmt"

	"plibmc/internal/ralloc"
)

// Maintenance: the work of the paper's bookkeeping process, which "remains
// alive as long as its K-V store is in use" and is responsible for
// intermittent cleaning — eviction of less-needed items when space runs low
// — plus, in our implementation, lazy-expiry sweeps and hash-table resizing
// (the paper's resizer "is not yet working correctly"; this one works, and
// FixedSize reproduces the paper's fixed 2^25-bucket evaluation setup).

// MaintReport summarizes one maintenance pass.
type MaintReport struct {
	Evicted   int
	Expired   int
	Resized   bool
	Reclaimed int // chunks returned to the shared pool
	Scrubbed  int // items deep-verified by the corruption scrubber
	Corrupt   int // corruptions the scrubber detected (and contained)
}

// Maintainer drives periodic store upkeep. Create one in the bookkeeping
// process and call RunOnce on an interval.
type Maintainer struct {
	ctx *Ctx
	// EvictBatch bounds evictions per pass.
	EvictBatch int
	// GrowLoadFactor is the items-per-bucket ratio that triggers a resize.
	GrowLoadFactor float64
	// ExpandBatch is how many old-table buckets one maintenance pass
	// migrates during a background expansion.
	ExpandBatch int
	// ScrubStripes is how many lock stripes one maintenance pass
	// deep-verifies (item checksums, hash↔key, value checksums). 0
	// disables scrubbing.
	ScrubStripes int

	scrubCursor uint64
}

// NewMaintainer creates a maintainer whose operations use the given lock
// owner token.
func (s *Store) NewMaintainer(owner uint64) *Maintainer {
	return &Maintainer{
		ctx:            s.NewCtx(owner),
		EvictBatch:     64,
		GrowLoadFactor: 1.5,
		ExpandBatch:    256,
		ScrubStripes:   4,
	}
}

// Ctx exposes the maintainer's operation context (for the daemon's own
// stats queries).
func (m *Maintainer) Ctx() *Ctx { return m.ctx }

// RunOnce performs one maintenance pass: evict down to the cleaning
// watermark (5% below the hard limit, so that client threads rarely have
// to evict inline), sweep the table for expired items, and resize if the
// table is overloaded.
func (m *Maintainer) RunOnce() MaintReport {
	defer m.ctx.opEnd(LatMaint, m.ctx.opBegin())
	var r MaintReport
	s := m.ctx.s
	watermark := s.memLimit - s.memLimit/20
	for s.A.LiveBytes() > watermark {
		n := m.ctx.evictSome(m.EvictBatch)
		r.Evicted += n
		if n == 0 {
			break // nothing evictable
		}
	}
	r.Expired = m.ctx.SweepExpired()
	if m.ScrubStripes > 0 {
		r.Scrubbed, r.Corrupt = m.ctx.ScrubChains(&m.scrubCursor, m.ScrubStripes)
	}
	// Free whatever the quarantine has accumulated; maintenance is the
	// backstop that keeps the grave short on read-mostly workloads that
	// rarely hit the push threshold.
	reaped := m.ctx.reapGrave()
	if r.Evicted+r.Expired > 0 || reaped > 0 {
		// Mass removals may leave whole chunks free; hand them back so
		// other size classes (or large allocations) can use the space.
		r.Reclaimed = s.A.Reclaim()
	}
	if !s.fixedSize {
		if s.Expanding() {
			// Continue the background migration a few buckets at a time.
			if moved, err := s.ExpandStep(m.ctx, m.ExpandBatch); err == nil && moved > 0 {
				r.Resized = true
			}
		} else {
			items := s.Stats().CurrItems
			buckets := uint64(1) << s.HashPower()
			if float64(items) > m.GrowLoadFactor*float64(buckets) {
				if err := s.StartExpand(m.ctx, s.HashPower()+1); err == nil {
					r.Resized = true
				}
			}
		}
	}
	return r
}

// SweepExpired walks the whole table and unlinks expired items, returning
// how many it removed. Expiry is otherwise lazy (on access).
func (c *Ctx) SweepExpired() int {
	c.enterOp()
	defer c.exitOp()
	s := c.s
	now := c.now()
	removed := 0
	for li := uint64(0); li < s.numItemLocks; li++ {
		lock := s.itemLocks + li*8
		c.lock(lock)
		s.forEachBucketLocked(li, func(bucket uint64) {
			it := loadChainHead(s, bucket)
			for it != 0 {
				next := loadChainNext(s, it)
				if s.expired(it, now) {
					c.unlinkLocked(it, s.itemHash(it))
					c.stat(statExpired, 1)
					removed++
				}
				it = next
			}
		})
		c.unlock(lock)
	}
	return removed
}

// ResizeTo rebuilds the primary hash table with 2^newPower buckets. It
// briefly stops the world by holding every item lock, then swaps the table
// through the Fig. 3 storage cell — which is exactly why that cell has its
// extra level of indirection: the table's location changes, the root's
// location does not.
func (s *Store) ResizeTo(c *Ctx, newPower uint) error {
	c.enterOp()
	defer c.exitOp()
	if s.Expanding() {
		return fmt.Errorf("core: cannot stop-the-world resize during a background expansion")
	}
	if uint64(1)<<newPower < s.numItemLocks {
		return fmt.Errorf("core: table of 2^%d buckets would be smaller than the lock stripe", newPower)
	}
	if newPower > 30 {
		return fmt.Errorf("core: refusing table of 2^%d buckets", newPower)
	}
	for li := uint64(0); li < s.numItemLocks; li++ {
		c.lock(s.itemLocks + li*8)
	}
	defer func() {
		for li := uint64(0); li < s.numItemLocks; li++ {
			c.unlock(s.itemLocks + li*8)
		}
	}()

	oldTable, oldMask := s.table()
	newSize := uint64(1) << newPower
	newTable, err := c.cache.Calloc(newSize * 8)
	if err != nil {
		return fmt.Errorf("core: resize to 2^%d: %w", newPower, err)
	}
	// Holding every item lock stops all writers and all *locked* readers,
	// but lock-free readers sample chains and routing state regardless:
	// bump every stripe seqlock for the duration so any overlapping
	// optimistic read fails validation, and make the splices and the
	// table swap atomic stores.
	for li := uint64(0); li < s.numItemLocks; li++ {
		s.H.SeqWriteBegin(s.seqLocks + li*8)
	}
	for b := uint64(0); b <= oldMask; b++ {
		it := loadChainHead(s, oldTable+b*8)
		for it != 0 {
			next := loadChainNext(s, it)
			h := s.itemHash(it)
			bucket := newTable + (h&(newSize-1))*8
			ralloc.AtomicStorePptr(s.H, it+itHNext, ralloc.LoadPptr(s.H, bucket))
			ralloc.AtomicStorePptr(s.H, bucket, it)
			it = next
		}
	}
	ralloc.AtomicStorePptr(s.H, s.htStorage+htTable, newTable)
	s.H.AtomicStore64(s.htStorage+htHashPower, uint64(newPower))
	for li := uint64(0); li < s.numItemLocks; li++ {
		s.H.SeqWriteEnd(s.seqLocks + li*8)
	}
	// The retired array may still be under a stalled reader's feet; the
	// grave holds it intact until every announced section drains.
	c.gravePush(oldTable)
	return nil
}
