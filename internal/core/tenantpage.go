package core

// Tenant arena pages (gate hardening). Each memcached session gets one
// page-sized, page-aligned block of the shared heap as its private arena,
// tagged with the session's own virtual protection key: the staging area
// for that tenant's security-sensitive buffers, isolated from sibling
// tenants by PKU rather than by convention. The blocks come from the
// ordinary allocator — the 4096 size class carves 64 KiB-aligned chunks
// into page-multiple blocks, so every block of that class is exactly one
// page and fully owns it, which is what lets a protection key be assigned
// to the block without catching unrelated neighbours.

import (
	"fmt"

	"plibmc/internal/shm"
)

// AllocPage allocates one page-aligned, page-sized heap block under a
// normal gate admission and returns its heap offset, evicting to make room
// exactly as an item allocation does, so a session opens on a full cache.
// The caller owns the page's protection-key assignment.
func (c *Ctx) AllocPage() (uint64, error) {
	c.enterOp()
	defer c.exitOp()
	off, err := c.allocWithEvict(shm.PageSize, true)
	if err != nil {
		return 0, err
	}
	if off%shm.PageSize != 0 {
		// Unreachable with the current class table (4096 divides ChunkSize);
		// guard it so a future class reshuffle fails loudly, not by handing
		// out a "page" whose key assignment bleeds onto a neighbour.
		c.cache.Free(off) //nolint:errcheck
		return 0, fmt.Errorf("core: allocator returned unaligned page block %#x", off)
	}
	return off, nil
}

// FreePage returns a page obtained from AllocPage to the heap. The caller
// must have already restored the page's protection key to the library's
// (a freed block can be recycled into any library structure).
func (c *Ctx) FreePage(off uint64) error {
	c.enterOp()
	defer c.exitOp()
	return c.cache.Free(off)
}
