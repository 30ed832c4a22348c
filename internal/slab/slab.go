// Package slab reimplements memcached's slab memory allocator, the ~1600
// lines of custom memory management that the paper deleted when it switched
// to Ralloc (§3.2, §4.2). It exists here to make the baseline server a
// faithful "original memcached": items live in fixed-size chunks carved
// from 1 MiB slab pages, chunk sizes grow geometrically, and memory — once
// assigned to a class — stays there, which is exactly the coupling between
// allocation and eviction that motivated the paper to decouple its LRU
// from the allocator.
package slab

import (
	"errors"
	"fmt"
	"sync"
)

const (
	// PageSize is the size of one slab page (memcached's default).
	PageSize = 1 << 20
	// MinChunk is the smallest chunk size.
	MinChunk = 96
	// GrowthFactor numerator/denominator: chunk sizes grow by 1.25.
	growNum, growDen = 5, 4
)

// ErrNoMemory is returned when the memory budget is exhausted and the
// caller must evict from the class's LRU before retrying.
var ErrNoMemory = errors.New("slab: memory limit reached; eviction required")

// Handle identifies an allocated chunk: class index, page index within the
// class, and chunk index within the page.
type Handle uint64

func makeHandle(class, page, chunk int) Handle {
	return Handle(uint64(class)<<48 | uint64(page)<<24 | uint64(chunk))
}

func (h Handle) class() int { return int(h >> 48) }
func (h Handle) page() int  { return int(h>>24) & 0xFFFFFF }
func (h Handle) chunk() int { return int(h) & 0xFFFFFF }

type class struct {
	mu      sync.Mutex
	size    int
	perPage int
	// pages has one slot for every page the budget allows and never moves:
	// Bytes indexes it without mu while another thread's Alloc fills a
	// later slot. The first npages slots are in use.
	pages     [][]byte
	npages    int
	free      []Handle
	allocated int // live chunks
}

// Allocator is a slab allocator with a global memory budget.
type Allocator struct {
	mu      sync.Mutex // guards budget
	budget  int64      // bytes remaining for new pages
	classes []*class
	sizes   []int
}

// New creates an allocator with the given total memory budget in bytes
// (memcached's -m).
func New(limit int64) *Allocator {
	a := &Allocator{budget: limit}
	maxPages := int(limit / PageSize)
	for size := MinChunk; size <= PageSize; size = size * growNum / growDen {
		sz := (size + 7) &^ 7
		if len(a.sizes) > 0 && sz <= a.sizes[len(a.sizes)-1] {
			sz = a.sizes[len(a.sizes)-1] + 8
		}
		a.sizes = append(a.sizes, sz)
		a.classes = append(a.classes, &class{size: sz, perPage: PageSize / sz, pages: make([][]byte, maxPages)})
	}
	return a
}

// NumClasses returns the number of slab classes.
func (a *Allocator) NumClasses() int { return len(a.classes) }

// ClassSize returns the chunk size of class i.
func (a *Allocator) ClassSize(i int) int { return a.sizes[i] }

// ClassFor returns the class index for an allocation of n bytes, or -1 if
// n exceeds the largest chunk.
func (a *Allocator) ClassFor(n int) int {
	for i, s := range a.sizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// Alloc allocates a chunk of at least n bytes. On ErrNoMemory the caller
// should evict an item from the same class (ClassFor(n)) and retry — the
// classic memcached eviction loop.
func (a *Allocator) Alloc(n int) (Handle, error) {
	ci := a.ClassFor(n)
	if ci < 0 {
		return 0, fmt.Errorf("slab: allocation of %d bytes exceeds largest chunk %d", n, a.sizes[len(a.sizes)-1])
	}
	c := a.classes[ci]
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.free) == 0 {
		if !a.grow(ci, c) {
			return 0, ErrNoMemory
		}
	}
	h := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.allocated++
	return h, nil
}

// grow adds one page to class ci if the budget allows. Caller holds c.mu.
func (a *Allocator) grow(ci int, c *class) bool {
	a.mu.Lock()
	if a.budget < PageSize {
		a.mu.Unlock()
		return false
	}
	a.budget -= PageSize
	a.mu.Unlock()
	page := c.npages
	c.pages[page] = make([]byte, PageSize)
	c.npages++
	for i := c.perPage - 1; i >= 0; i-- {
		c.free = append(c.free, makeHandle(ci, page, i))
	}
	return true
}

// Free returns a chunk to its class's free list.
func (a *Allocator) Free(h Handle) {
	c := a.classes[h.class()]
	c.mu.Lock()
	c.free = append(c.free, h)
	c.allocated--
	c.mu.Unlock()
}

// Bytes returns the chunk's storage. The slice aliases the slab page; it is
// valid until the chunk is freed.
func (a *Allocator) Bytes(h Handle) []byte {
	c := a.classes[h.class()]
	base := h.chunk() * c.size
	return c.pages[h.page()][base : base+c.size]
}

// ClassOf returns the class index of an allocated chunk.
func (a *Allocator) ClassOf(h Handle) int { return h.class() }

// Stats describes per-class usage.
type Stats struct {
	Class     int
	ChunkSize int
	Pages     int
	Used      int
	Free      int
}

// StatsPerClass returns usage for every class that has pages.
func (a *Allocator) StatsPerClass() []Stats {
	var out []Stats
	for i, c := range a.classes {
		c.mu.Lock()
		if c.npages > 0 {
			out = append(out, Stats{
				Class: i, ChunkSize: c.size, Pages: c.npages,
				Used: c.allocated, Free: len(c.free),
			})
		}
		c.mu.Unlock()
	}
	return out
}
