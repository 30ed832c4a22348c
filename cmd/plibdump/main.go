// Command plibdump inspects a flushed heap image offline: it verifies the
// allocator's integrity (the shared-memory fsck), prints the store's
// statistics and configuration, and optionally dumps entries — all without
// a running bookkeeper.
//
//	plibdump -file /var/tmp/store.img            # verify + summarize
//	plibdump -file /var/tmp/store.img -keys      # also list keys
//	plibdump -file /var/tmp/store.img -dump -max 10
//	plibdump -file /var/tmp/store.img -metrics   # latency histograms
//	plibdump -file /var/tmp/store.img -verify    # deep-verify all slots
//	plibdump -file /var/lib/plibmc               # cluster dir: verify every shard
//
// -verify checks every image slot for the path (the base file plus the
// .a/.b checkpoint slots): header and per-region checksums, the
// allocator fsck, and a deep item audit (header checksums, hash↔key
// agreement, value checksums). It exits nonzero if any slot is corrupt,
// reporting exactly which 64 KiB regions and which items are damaged.
//
// Pointing -file at a directory switches to cluster mode: every
// shard-*.img base in the directory (the layout memcachedd -shards
// writes) is deep-verified with all its checkpoint slots, and the exit
// code is nonzero if any shard has a corrupt slot. The cluster's
// routing metadata is reported too: the ring.json manifest (shard count
// and virtual nodes), and — when a reshard.json marker is present — the
// fact that a live resize was interrupted mid-migration, which the next
// OpenCluster repairs by sweeping stray keys.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"plibmc/internal/core"
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

func main() {
	var (
		file    = flag.String("file", "", "heap image to inspect (required)")
		keys    = flag.Bool("keys", false, "list keys")
		dump    = flag.Bool("dump", false, "dump keys and values")
		locks   = flag.Bool("locks", false, "list held heap-resident locks with their owners")
		metrics = flag.Bool("metrics", false, "print the per-op-class latency histograms recorded in the image")
		verify  = flag.Bool("verify", false, "deep-verify every image slot (checksums, allocator fsck, item audit); exit nonzero on corruption")
		max     = flag.Int("max", 0, "stop after this many entries (0 = all)")
	)
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "plibdump: -file is required")
		os.Exit(2)
	}
	if fi, err := os.Stat(*file); err == nil && fi.IsDir() {
		os.Exit(verifyShardDir(*file, *max))
	}
	if *verify {
		os.Exit(verifyImages(*file, *max))
	}

	heap, err := shm.Load(*file)
	fatalIf(err)
	fmt.Printf("heap: %d bytes (%d pages)\n", heap.Size(), heap.Pages())

	alloc, err := ralloc.Open(heap)
	fatalIf(err)
	rep, err := alloc.Check()
	if err != nil {
		fmt.Fprintf(os.Stderr, "plibdump: INTEGRITY FAILURE: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("allocator: verified OK — %d free / %d class / %d large chunks, %d free blocks, %d live bytes\n",
		rep.FreeChunks, rep.ClassChunks, rep.LargeChunks, rep.FreeBlocks, rep.LiveBytes)

	store, err := core.Attach(alloc)
	fatalIf(err)
	if *locks {
		// Post-mortem triage of an image flushed after a crash: which
		// thread died holding what. The image is offline, so every owner
		// is dead by definition — a live store would be repaired online
		// by the bookkeeper, not dumped.
		printLocks(store, alloc)
	}
	store.ResetGate()
	// Break whatever locks the dying threads left held before walking:
	// the key/value walk takes stripe locks, and in an offline image no
	// owner can ever release one.
	store.ForceReleaseDeadLocks(func(uint64) bool { return true })
	alloc.RepairLocks()
	st := store.Stats()
	fmt.Printf("store: 2^%d buckets, %d items, %d bytes; lifetime: %d gets (%d hits), %d sets, %d evictions, %d expired\n",
		store.HashPower(), st.CurrItems, st.Bytes, st.Gets, st.GetHits, st.Sets, st.Evictions, st.Expired)
	if store.Expanding() {
		fmt.Println("store: background expansion in progress (will resume when reopened)")
	}
	if *metrics {
		// The latency histograms live in the heap, so they survive into
		// the image — including one written after a crash. What the store
		// measured in its final life is readable post mortem.
		printLatency(store)
	}

	ctx := store.NewCtx(1)
	if lens := ctx.LRULengths(); len(lens) > 0 {
		minL, maxL, total := lens[0], lens[0], 0
		for _, n := range lens {
			if n < minL {
				minL = n
			}
			if n > maxL {
				maxL = n
			}
			total += n
		}
		fmt.Printf("lru: %d lists, %d items (min %d / max %d per list)\n", len(lens), total, minL, maxL)
	}
	for _, cs := range alloc.ClassStats() {
		fmt.Printf("class %6d B: %3d chunks, %5d/%5d blocks free\n",
			cs.ClassSize, cs.Chunks, cs.FreeBlocks, cs.TotalBlocks)
	}

	if !*keys && !*dump {
		return
	}
	n := 0
	ctx.ForEach(func(e *core.Entry) bool {
		if *dump {
			fmt.Printf("%q flags=%d exp=%d cas=%d value=%q\n", e.Key, e.Flags, e.Exptime, e.CAS, e.Value)
		} else {
			fmt.Printf("%q (%d bytes)\n", e.Key, len(e.Value))
		}
		n++
		return *max == 0 || n < *max
	})
	fmt.Printf("listed %d entries\n", n)
}

// verifyImages deep-verifies every image slot for base (the base file and
// the .a/.b checkpoint slots) and returns the process exit code: 0 if
// every existing slot is fully intact, 1 if any slot shows corruption.
// An operator running with A/B checkpoints wants to know about a decayed
// older slot even while the newest one still verifies — that is one disk
// error away from data loss.
func verifyImages(base string, max int) int {
	cands := shm.ImageCandidates(base)
	if len(cands) == 0 {
		fmt.Fprintf(os.Stderr, "plibdump: no heap image found at %s\n", base)
		return 1
	}
	exit := 0
	for _, cand := range cands {
		if !verifyOne(cand, max) {
			exit = 1
		}
	}
	return exit
}

// verifyShardDir deep-verifies a cluster directory: every shard-*.img
// base (and its checkpoint slots, via verifyImages) gets the full chain.
// One decayed slot on one shard makes the whole run exit nonzero — an
// operator checking the fleet's images wants the union of problems.
func verifyShardDir(dir string, max int) int {
	// A shard base may exist only as its .a/.b checkpoint slots (a clean
	// shutdown writes a checkpoint, not the bare base image), so derive
	// the base set from every slot's name.
	slots, err := filepath.Glob(filepath.Join(dir, "shard-*.img*"))
	fatalIf(err)
	seen := make(map[string]bool)
	var bases []string
	for _, s := range slots {
		base := strings.TrimSuffix(strings.TrimSuffix(s, ".a"), ".b")
		if !strings.HasSuffix(base, ".img") || seen[base] {
			continue // .tmp leftovers and duplicates
		}
		seen[base] = true
		bases = append(bases, base)
	}
	if len(bases) == 0 {
		fmt.Fprintf(os.Stderr, "plibdump: no shard-*.img images under %s\n", dir)
		return 1
	}
	sort.Strings(bases)
	fmt.Printf("%s: %d shards\n", dir, len(bases))
	describeRing(dir, len(bases))
	exit := 0
	bad := 0
	for _, base := range bases {
		if verifyImages(base, max) != 0 {
			exit = 1
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("cluster: %d of %d shards have corrupt or unreadable slots\n", bad, len(bases))
	} else {
		fmt.Printf("cluster: all %d shards verified OK\n", len(bases))
	}
	return exit
}

// describeRing reports the cluster's routing manifest (ring.json) and
// whether a live resharding was cut short (reshard.json): a directory
// with the marker present holds a consistent but interrupted migration —
// every key is on its old or its new shard, possibly both — and the
// next OpenCluster sweeps the strays. The shard *images* still verify
// individually either way; this is routing metadata, not heap state.
func describeRing(dir string, imgShards int) {
	var manifest struct {
		Shards       int `json:"shards"`
		VirtualNodes int `json:"virtual_nodes"`
	}
	if b, err := os.ReadFile(filepath.Join(dir, "ring.json")); err == nil {
		if json.Unmarshal(b, &manifest) == nil && manifest.Shards > 0 {
			fmt.Printf("ring: %d shards, %d virtual nodes per shard\n",
				manifest.Shards, manifest.VirtualNodes)
			if manifest.Shards != imgShards {
				fmt.Printf("ring: WARNING — manifest says %d shards but %d shard images present\n",
					manifest.Shards, imgShards)
			}
		} else {
			fmt.Println("ring: ring.json present but unreadable")
		}
	}
	var marker struct {
		FromShards int `json:"from_shards"`
		ToShards   int `json:"to_shards"`
	}
	if b, err := os.ReadFile(filepath.Join(dir, "reshard.json")); err == nil {
		if json.Unmarshal(b, &marker) == nil {
			fmt.Printf("ring: MIGRATION IN PROGRESS — resize %d → %d shards was interrupted; "+
				"keys may be duplicated across old and new owners until the next open sweeps them\n",
				marker.FromShards, marker.ToShards)
		} else {
			fmt.Println("ring: reshard.json present but unreadable — a resize was interrupted")
		}
	}
}

// verifyOne runs one slot through the full verification chain, printing a
// per-region and per-item report. Returns true if the slot is intact.
func verifyOne(cand shm.Candidate, max int) bool {
	fmt.Printf("%s:\n", cand.Path)
	if cand.Err != nil {
		fmt.Printf("  header: UNREADABLE: %v\n", cand.Err)
		return false
	}
	rep, err := shm.VerifyImage(cand.Path)
	if err != nil {
		fmt.Printf("  checksums: UNREADABLE: %v\n", err)
		return false
	}
	fmt.Printf("  header: OK — generation %d, %d heap bytes in %d regions of %d KiB\n",
		rep.Info.Generation, rep.Info.HeapBytes, rep.Info.Regions, rep.Info.RegionSize>>10)
	if !rep.OK() {
		if !rep.TableOK {
			fmt.Println("  checksums: region table corrupt")
		}
		for _, f := range rep.BadRegions {
			fmt.Printf("  checksums: region %d CORRUPT (heap bytes [%#x, %#x), crc %016x want %016x)\n",
				f.Region, f.Off, f.Off+f.Len, f.Got, f.Want)
		}
		if len(rep.BadRegions) == 0 && rep.TableOK && !rep.ImageCRCOK {
			fmt.Println("  checksums: whole-image checksum mismatch")
		}
		return false
	}
	fmt.Printf("  checksums: OK — %d regions, table and whole-image CRCs verified\n", rep.Info.Regions)

	heap, _, err := shm.LoadImage(cand.Path)
	if err != nil {
		fmt.Printf("  load: FAILED: %v\n", err)
		return false
	}
	alloc, err := ralloc.Open(heap)
	if err != nil {
		fmt.Printf("  allocator: FAILED to open: %v\n", err)
		return false
	}
	chk, err := alloc.Check()
	if err != nil {
		fmt.Printf("  allocator: INTEGRITY FAILURE: %v\n", err)
		return false
	}
	fmt.Printf("  allocator: OK — %d live bytes, %d free blocks\n", chk.LiveBytes, chk.FreeBlocks)

	store, err := core.Attach(alloc)
	if err != nil {
		fmt.Printf("  store: FAILED to attach: %v\n", err)
		return false
	}
	store.ResetGate()
	store.ForceReleaseDeadLocks(func(uint64) bool { return true })
	alloc.RepairLocks()
	ctx := store.NewCtx(1)
	scanned, faults := ctx.AuditItems(max)
	if len(faults) > 0 {
		fmt.Printf("  items: %d scanned, %d CORRUPT\n", scanned, len(faults))
		for _, f := range faults {
			fmt.Printf("    %s\n", f)
		}
		return false
	}
	fmt.Printf("  items: OK — %d deep-verified\n", scanned)
	return true
}

// printLocks reports the operation gate, every held store lock, and the
// allocator's large-path lock, decoding each owner token (PID<<20|TID+1)
// into the process and thread that held it when the image was written.
func printLocks(store *core.Store, alloc *ralloc.Allocator) {
	inflight, barrier := store.InFlightOps()
	fmt.Printf("gate: %d in-flight ops recorded, barrier=%v\n", inflight, barrier)
	held := store.HeldLocks()
	if o := alloc.AllocLockOwner(); o != 0 {
		held = append(held, core.HeldLock{Kind: "alloc", Owner: o})
	}
	if len(held) == 0 {
		fmt.Println("locks: none held")
		return
	}
	fmt.Printf("locks: %d held\n", len(held))
	for _, l := range held {
		pid := l.Owner >> 20
		tid := l.Owner&(1<<20-1) - 1
		fmt.Printf("  %-5s %4d  owner=%#x (pid %d, tid %d) — dead in this image\n",
			l.Kind, l.Index, l.Owner, pid, tid)
	}
}

// printLatency dumps the heap-resident per-op-class latency histograms.
func printLatency(store *core.Store) {
	if !store.LatencyEnabled() {
		fmt.Println("latency: recording disabled in this image")
		return
	}
	ls := store.Latency()
	fmt.Printf("latency: sampling 1 in %d ops\n", store.LatencySampleEvery())
	for class := 0; class < core.NumLatClasses; class++ {
		h := &ls.Classes[class]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-6s %8d samples  mean %8v  p50 %8v  p99 %8v  max %8v\n",
			core.LatClassNames[class], h.Count(), h.Mean(),
			h.Percentile(50), h.Percentile(99), h.Max())
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "plibdump:", err)
		os.Exit(1)
	}
}
