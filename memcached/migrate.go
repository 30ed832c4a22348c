package memcached

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
	"plibmc/internal/ring"
)

// Live resharding (ISSUE 9 tentpole). Resize(newShards) computes the
// ring.Plan between the current and target rings and streams exactly the
// moved hash segments between shards in the background, while clients
// keep serving. The protocol, per segment:
//
//  1. Walk the source shard (one ForEach pass per source, shared across
//     that source's pending segments) and collect the keys hashing into
//     the segment.
//  2. Bulk-copy them in batches: a BatchExport sub-batch on the source
//     (one gate crossing, no LRU rejuvenation, absolute expiry carried
//     along) feeds a BatchInstall sub-batch on the destination (one
//     crossing, CAS generation preserved verbatim — shard-disjoint CAS
//     spaces make the source's generations safe to replay there).
//  3. Cut over under the segment's write lock: writes that landed on the
//     source since routing became migration-aware were dirty-marked at
//     route time, and are re-copied (or re-deleted) here while no client
//     op can hold the segment. Setting done flips the segment's routing
//     to the destination before the lock releases.
//
// Routing during all of this is dual-ring: a key in an uncut segment
// goes to the segment's source *while holding the segment guard in
// shared mode*, a key in a cut segment goes to its destination, and a
// key outside the plan goes where both rings agree. So an existing key
// never misses: it is always fully present on whichever side routing
// currently picks.
//
// The migrator runs as client-grade work: its export/install batches
// cross the gate through ordinary sessions, so a migrator crash — the
// migrate.mid_segment fault point between batches, or a crash inside a
// crossing — is survived exactly like any client crash. Both shards
// repair online, the attempt's processes are abandoned, and a fresh
// attempt re-walks the pending segments (done segments stay done;
// re-copying a partially copied segment is idempotent because Install
// overwrites and cutover reconciles deletes).

// fpMigrateMidSegment fires between copy batches of a segment — after
// some of its keys have been installed on the destination but before the
// segment cuts over. The crash-isolation tier arms it to kill the
// migrator at the worst possible moment and prove both shards stay
// healthy and the migration is restartable.
var fpMigrateMidSegment = faultpoint.New("migrate.mid_segment")

// ErrResizeInProgress is returned by Resize while a migration is live.
var ErrResizeInProgress = errors.New("memcached: a resize is already in progress")

// errMigrationParked marks a migration stopped by Shutdown: the reshard
// marker stays on disk so the next OpenCluster sweeps strays.
var errMigrationParked = errors.New("memcached: migration parked by shutdown")

const (
	// migBatchSize keys per export/install crossing pair.
	migBatchSize = 64
	// migMaxAttempts bounds restart-after-crash before the resize aborts.
	migMaxAttempts = 5
	// migUID is the migrator's client uid.
	migUID = 0x4D16
)

// migOwnerSeq mints lock-owner tokens for the migrator's direct contexts
// (segment walks, purge sweeps), in a space disjoint from every session's
// (pid<<20 | tid+1).
var migOwnerSeq atomic.Uint64

func migOwner() uint64 { return uint64(1)<<42 | migOwnerSeq.Add(1) }

// migSeg is one plan segment's migration state. The RWMutex is the
// routing guard: client ops touching the segment hold it shared for the
// duration of their shard access; cutover holds it exclusively while it
// re-copies the dirty set and flips done. dirty collects keys written on
// the source since the migration started — marked at route time, before
// the write executes, so a mark is always conservative.
type migSeg struct {
	seg ring.Segment

	mu   sync.RWMutex
	done bool // guarded by mu; true once routing flipped to seg.To

	doneA atomic.Bool // mirror of done for lock-free progress reads

	dmu   sync.Mutex
	dirty map[string]struct{}
}

func (s *migSeg) release() { s.mu.RUnlock() }

// markDirty records a source-side write for the pre-cutover recopy.
// Never cleared before cutover, and no new marks can arrive after (done
// flips under the exclusive lock while every marker holds the shared
// one).
func (s *migSeg) markDirty(key []byte) {
	s.dmu.Lock()
	s.dirty[string(key)] = struct{}{}
	s.dmu.Unlock()
}

// migration is one live resize: the two rings, the plan, and the
// migrator's restartable state.
type migration struct {
	c        *Cluster
	from, to *ring.Ring
	segs     []*migSeg

	// Sorted segment index for segFor: order holds indices into segs
	// sorted by Start, starts the matching Start values; wrapped is the
	// index of the (single possible) Start >= End segment, or -1.
	order   []int
	starts  []uint64
	wrapped int

	stopped  atomic.Bool
	err      error // terminal outcome; set before finished closes
	finished chan struct{}

	cliMu sync.Mutex
	cli   *ClusterSession // current attempt's session, for KillMigrator
}

func (m *migration) segmentsDone() int {
	n := 0
	for _, s := range m.segs {
		if s.doneA.Load() {
			n++
		}
	}
	return n
}

// segFor maps a hash position to its plan segment index, or -1 when both
// rings agree on it. Binary search over the disjoint segments sorted by
// Start; at most one segment can wrap past the top of the circle, checked
// separately.
func (m *migration) segFor(h uint64) int {
	// Last segment with Start < h: Contains is exclusive at Start, so a
	// segment starting exactly at h cannot hold it.
	i := sort.Search(len(m.starts), func(i int) bool { return m.starts[i] >= h }) - 1
	if i >= 0 && m.segs[m.order[i]].seg.Contains(h) {
		return m.order[i]
	}
	if m.wrapped >= 0 && m.segs[m.wrapped].seg.Contains(h) {
		return m.wrapped
	}
	return -1
}

func (m *migration) buildIndex() {
	m.wrapped = -1
	for i, s := range m.segs {
		if s.seg.Start >= s.seg.End {
			m.wrapped = i
			continue
		}
		m.order = append(m.order, i)
	}
	sort.Slice(m.order, func(a, b int) bool {
		return m.segs[m.order[a]].seg.Start < m.segs[m.order[b]].seg.Start
	})
	m.starts = make([]uint64, len(m.order))
	for i, idx := range m.order {
		m.starts[i] = m.segs[idx].seg.Start
	}
}

// routeHash is the routing core: old ring unless the hash's segment has
// cut over.
//
// With no live migration the authoritative ring decides alone. During
// one, a hash inside an uncut plan segment routes to the segment's
// source with the shared guard held — the cutover takes the guard
// exclusively, so an op holding it can never interleave with the final
// recopy — and to the destination the moment done is set. A hash outside
// the plan goes where both rings agree.
//
// held, when non-nil, is a batch's already-held guard set: a guard in it
// is not re-acquired (a second RLock on the same mutex can deadlock
// against a writer queued between the two) but is still returned so the
// op can dirty-mark. Callers passing held own membership bookkeeping and
// release; single-key callers (held == nil) release the returned guard.
func (c *Cluster) routeHash(h uint64, held map[*migSeg]struct{}) (int, *migSeg) {
	m := c.mig.Load()
	if m == nil {
		return c.top().ring.Owner(h), nil
	}
	i := m.segFor(h)
	if i < 0 {
		return m.from.Owner(h), nil
	}
	s := m.segs[i]
	if held != nil {
		if _, ok := held[s]; ok {
			// Still in the pre-cutover state: done cannot flip while this
			// batch holds the shared lock.
			return s.seg.From, s
		}
	}
	s.mu.RLock()
	if s.done {
		s.mu.RUnlock()
		return s.seg.To, nil
	}
	return s.seg.From, s
}

// Resize rebalances the cluster to newShards shards, live. New shards (on
// grow) are created and attached immediately; the keyspace then migrates
// in the background and the authoritative ring advances only when every
// moved segment has cut over. Shrink migrates the dying shards' keyspace
// onto the survivors and leaves the drained shards attached (and empty)
// until Shutdown. Returns once the migration is underway; WaitResize or
// MigrationStatus observe completion. One resize runs at a time.
func (c *Cluster) Resize(newShards int) error {
	if newShards < 1 {
		return fmt.Errorf("memcached: resize to %d shards", newShards)
	}
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	if c.mig.Load() != nil {
		return ErrResizeInProgress
	}
	top := c.top()
	if newShards == top.ring.Shards() {
		return nil
	}
	to, err := ring.New(newShards, top.ring.VirtualNodes())
	if err != nil {
		return err
	}
	newTop := top.clone()
	shutdownCreated := func() {
		for _, nb := range newTop.shards[len(top.shards):] {
			nb.Shutdown() //nolint:errcheck
		}
	}
	for i := len(top.shards); i < newShards; i++ {
		b, err := CreateStore(c.cfg.shardConfig(i))
		if err != nil {
			shutdownCreated()
			return fmt.Errorf("memcached: shard %d: %w", i, err)
		}
		c.install(b, i)
		newTop.shards = append(newTop.shards, b)
		newTop.health = append(newTop.health, &shardHealth{})
	}
	plan := ring.Plan(top.ring, to)
	m := &migration{c: c, from: top.ring, to: to, finished: make(chan struct{})}
	m.segs = make([]*migSeg, len(plan))
	for i := range plan {
		m.segs[i] = &migSeg{seg: plan[i], dirty: make(map[string]struct{})}
	}
	m.buildIndex()
	if c.cfg.Dir != "" {
		if err := writeReshardMarker(c.cfg.Dir, top.ring.Shards(), newShards); err != nil {
			shutdownCreated()
			return err
		}
	}
	// The write barrier: no client op may straddle the moment the
	// dual-ring rules take effect. Every op holds routeMu shared for its
	// whole route-and-access span, so once this exclusive section ends,
	// every in-flight op predates the migration (and saw the old single
	// ring, which stays authoritative until its segment cuts over) and
	// every later op sees it.
	c.routeMu.Lock()
	c.topo.Store(newTop)
	c.mig.Store(m)
	c.routeMu.Unlock()
	c.lastMig.Store(m)
	c.resizes.Add(1)
	go m.run()
	return nil
}

// WaitResize blocks until the most recent Resize's migration reaches a
// terminal state and returns its outcome (nil on a completed cutover).
func (c *Cluster) WaitResize(timeout time.Duration) error {
	m := c.lastMig.Load()
	if m == nil {
		return nil
	}
	select {
	case <-m.finished:
		return m.err
	case <-time.After(timeout):
		return fmt.Errorf("memcached: resize still running after %v", timeout)
	}
}

// MigrationStatus is the admin-plane view of the most recent resize.
type MigrationStatus struct {
	Active        bool   `json:"active"`
	FromShards    int    `json:"from_shards"`
	ToShards      int    `json:"to_shards"`
	SegmentsTotal int    `json:"segments_total"`
	SegmentsDone  int    `json:"segments_done"`
	KeysMoved     uint64 `json:"keys_moved"`
	Retries       uint64 `json:"retries"`
	Error         string `json:"error,omitempty"`
}

// MigrationStatus reports the most recent resize's progress (zero value
// if none was ever started).
func (c *Cluster) MigrationStatus() MigrationStatus {
	m := c.lastMig.Load()
	if m == nil {
		return MigrationStatus{}
	}
	st := MigrationStatus{
		FromShards:    m.from.Shards(),
		ToShards:      m.to.Shards(),
		SegmentsTotal: len(m.segs),
		SegmentsDone:  m.segmentsDone(),
		KeysMoved:     c.keysMoved.Load(),
		Retries:       c.migRetries.Load(),
	}
	select {
	case <-m.finished:
		if m.err != nil {
			st.Error = m.err.Error()
		}
	default:
		st.Active = true
	}
	return st
}

// KillMigrator kills the current migration attempt's client processes —
// the simulated mid-flight death of the migrator (crash-isolation tier;
// typically armed behind the migrate.mid_segment fault point). The
// migration itself survives: the attempt fails, both shards repair if the
// kill landed inside a crossing, and a fresh attempt resumes the pending
// segments.
func (c *Cluster) KillMigrator() {
	m := c.mig.Load()
	if m == nil {
		return
	}
	m.cliMu.Lock()
	if m.cli != nil {
		m.cli.cc.Kill()
	}
	m.cliMu.Unlock()
}

// run is the migrator goroutine: stray sweep, then bounded attempts,
// then a terminal finish/abort/park.
func (m *migration) run() {
	// Delete every entry the old ring does not place where it sits before
	// any byte moves. A shard reopened or supervisor-rebuilt from a
	// checkpoint older than the last resize can carry keys the current
	// ring places elsewhere; unreachable today, such a key must not be
	// resurrected when this resize routes its hash back to that shard.
	// After the sweep the copy protocol owns everything that moves. Must
	// precede the first cutover: the sweep judges placement by the old
	// ring, which only stays true of every key until routing starts
	// flipping segments.
	m.c.purgeRing(m.from)

	var lastErr error
	for attempt := 0; attempt < migMaxAttempts; attempt++ {
		if m.stopped.Load() {
			m.park(errMigrationParked)
			return
		}
		if attempt > 0 {
			m.c.migRetries.Add(1)
			if err := m.waitHealthy(); err != nil {
				lastErr = err
				break
			}
		}
		err := m.attempt()
		if err == nil {
			m.finish()
			return
		}
		lastErr = err
		if m.stopped.Load() {
			m.park(err)
			return
		}
	}
	m.abort(fmt.Errorf("memcached: migration failed after %d attempts: %w", migMaxAttempts, lastErr))
}

// attempt copies and cuts over every pending segment with a fresh client
// identity. Any panic out of the copy machinery (fault points, killed-
// process paths) is contained here: the attempt fails, the migration —
// and both shards — survive.
func (m *migration) attempt() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("memcached: migrator crashed: %v", r)
		}
	}()
	cc, err := m.c.NewClientProcess(migUID)
	if err != nil {
		return err
	}
	cli, err := cc.NewSession()
	if err != nil {
		return err
	}
	m.cliMu.Lock()
	m.cli = cli
	m.cliMu.Unlock()
	defer func() {
		m.cliMu.Lock()
		m.cli = nil
		m.cliMu.Unlock()
		cli.Close() // kill-safe: dead sessions defer teardown to recovery
	}()
	// One walk per source shard covers all its pending segments.
	bySrc := make(map[int][]int)
	var srcs []int
	for i, s := range m.segs {
		if s.doneA.Load() {
			continue
		}
		if len(bySrc[s.seg.From]) == 0 {
			srcs = append(srcs, s.seg.From)
		}
		bySrc[s.seg.From] = append(bySrc[s.seg.From], i)
	}
	sort.Ints(srcs)
	for _, src := range srcs {
		keysBySeg := m.collectKeys(src)
		for _, si := range bySrc[src] {
			if m.stopped.Load() {
				return errMigrationParked
			}
			if err := m.copySegment(cli, m.segs[si], keysBySeg[si]); err != nil {
				return fmt.Errorf("segment %d: %w", si, err)
			}
		}
	}
	return nil
}

// collectKeys walks source shard src once and buckets every key belonging
// to one of its pending segments. Keys written after the walk are covered
// by the dirty set; keys deleted after it surface as export misses.
func (m *migration) collectKeys(src int) map[int][][]byte {
	out := make(map[int][][]byte)
	ctx := m.c.top().shards[src].Store().NewCtx(migOwner())
	defer ctx.Close()
	ctx.ForEach(func(e *core.Entry) bool {
		i := m.segFor(ring.Hash(e.Key))
		if i >= 0 && m.segs[i].seg.From == src && !m.segs[i].doneA.Load() {
			out[i] = append(out[i], append([]byte(nil), e.Key...))
		}
		return true
	})
	return out
}

// copySegment bulk-copies keys (collected by the walk) source→destination
// and then cuts the segment over.
func (m *migration) copySegment(cli *ClusterSession, s *migSeg, keys [][]byte) error {
	from, err := cli.sess(s.seg.From)
	if err != nil {
		return err
	}
	to, err := cli.sess(s.seg.To)
	if err != nil {
		return err
	}
	for off := 0; off < len(keys); off += migBatchSize {
		if off > 0 {
			fpMigrateMidSegment.Maybe()
		}
		if m.stopped.Load() {
			return errMigrationParked
		}
		end := off + migBatchSize
		if end > len(keys) {
			end = len(keys)
		}
		if err := m.copyBatch(from, to, keys[off:end], false); err != nil {
			return err
		}
	}
	if len(keys) > 0 {
		// The canonical mid-segment moment: data copied, cutover pending.
		fpMigrateMidSegment.Maybe()
	}
	return m.cutover(from, to, s)
}

// copyBatch moves one batch: export on the source (one crossing), install
// on the destination (one crossing). Export misses are keys deleted since
// the walk; in recopy mode (the dirty set at cutover) a miss means the
// source-side write was a delete, which must propagate as a delete.
func (m *migration) copyBatch(from, to *Session, keys [][]byte, recopy bool) error {
	ops := make([]BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchOp{Code: core.BatchExport, Key: k}
	}
	res, err := from.ExecBatch(ops)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	ins := make([]BatchOp, 0, len(keys))
	for i := range res {
		switch {
		case res[i].Err == nil:
			ins = append(ins, BatchOp{
				Code:    core.BatchInstall,
				Key:     keys[i],
				Value:   res[i].Value,
				Flags:   res[i].Flags,
				Exptime: res[i].Exptime,
				CAS:     res[i].CAS,
			})
		case errors.Is(res[i].Err, ErrNotFound) && recopy:
			ins = append(ins, BatchOp{Code: core.BatchDelete, Key: keys[i]})
		case errors.Is(res[i].Err, ErrNotFound):
			// Deleted since the walk; the dirty set owns it now.
		default:
			return fmt.Errorf("export %q: %w", keys[i], res[i].Err)
		}
	}
	if len(ins) == 0 {
		return nil
	}
	ires, err := to.ExecBatch(ins)
	if err != nil {
		return fmt.Errorf("install: %w", err)
	}
	moved := uint64(0)
	for i := range ires {
		if ires[i].Err == nil {
			if ins[i].Code == core.BatchInstall {
				moved++
			}
			continue
		}
		if ins[i].Code == core.BatchDelete && errors.Is(ires[i].Err, ErrNotFound) {
			continue // deleting a never-copied key
		}
		return fmt.Errorf("install %q: %w", ins[i].Key, ires[i].Err)
	}
	m.c.keysMoved.Add(moved)
	return nil
}

// cutover flips one segment to its destination. Under the exclusive
// guard — no client op can be touching the segment — it re-copies the
// dirty set (writes that landed on the source mid-copy; export misses
// propagate as deletes) and sets done, atomically switching routing for
// the segment's whole arc. The deferred unlock keeps both shards
// reachable even if the recopy crashes: the segment simply stays uncut
// and the next attempt redoes it.
func (m *migration) cutover(from, to *Session, s *migSeg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dmu.Lock()
	dirty := make([][]byte, 0, len(s.dirty))
	for k := range s.dirty {
		dirty = append(dirty, []byte(k))
	}
	s.dmu.Unlock()
	for off := 0; off < len(dirty); off += migBatchSize {
		end := off + migBatchSize
		if end > len(dirty) {
			end = len(dirty)
		}
		if err := m.copyBatch(from, to, dirty[off:end], true); err != nil {
			return err
		}
	}
	s.done = true
	s.doneA.Store(true)
	m.c.segsMoved.Add(1)
	return nil
}

// finish installs the target ring. Order matters: the topology swap
// happens before mig clears, so routing is never without a rule set; the
// manifest advances before the purge, so a crash mid-purge reopens onto
// the new ring with the marker still there to finish the sweep; the purge
// deletes every moved key's source copy (and is the reason the swap must
// come first — after it, no route reaches a source for a moved key).
func (m *migration) finish() {
	c := m.c
	top := c.top().clone()
	top.ring = m.to
	c.topo.Store(top)
	if c.cfg.Dir != "" {
		if err := writeRingManifest(c.cfg.Dir, m.to.Shards(), m.to.VirtualNodes()); err != nil {
			// Keep serving on the new ring; the stale manifest plus marker
			// still reopen safely (old placement, swept strays).
			c.mig.Store(nil)
			m.err = err
			close(m.finished)
			return
		}
	}
	c.mig.Store(nil)
	c.purgeStale()
	if c.cfg.Dir != "" {
		removeReshardMarker(c.cfg.Dir)
	}
	m.err = nil
	close(m.finished)
}

// abort reverts to the old ring after repeated attempt failures: the
// sources never lost a byte, so clearing mig restores exact pre-resize
// routing, and the purge (old ring) deletes whatever partial copies
// landed on the destinations.
func (m *migration) abort(err error) {
	c := m.c
	c.mig.Store(nil)
	c.purgeStale()
	if c.cfg.Dir != "" {
		removeReshardMarker(c.cfg.Dir)
	}
	m.err = err
	close(m.finished)
}

// park stops without cleanup (Shutdown): the marker stays so the next
// OpenCluster sweeps, and the caller is about to flush every shard.
func (m *migration) park(err error) {
	m.c.mig.Store(nil)
	m.err = err
	close(m.finished)
}

// waitHealthy blocks until every shard's library is out of repair, so a
// fresh attempt doesn't immediately impale itself on a poisoned gate.
func (m *migration) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		healthy := true
		for _, b := range m.c.top().shards {
			lib := b.Library()
			if lib.Poisoned() || lib.Recovering() {
				healthy = false
				break
			}
		}
		if healthy {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("memcached: shards still unhealthy after %v", 30*time.Second)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// purgeStale sweeps every shard against the current authoritative ring,
// deleting entries the ring does not place where they sit: moved keys'
// source copies after a completed migration, partial destination copies
// after an aborted one.
func (c *Cluster) purgeStale() { c.purgeRing(c.top().ring) }

func (c *Cluster) purgeRing(r *ring.Ring) {
	for i, b := range c.top().shards {
		purgeShard(b, r, i)
	}
}

func purgeShard(b *Bookkeeper, r *ring.Ring, self int) {
	ctx := b.Store().NewCtx(migOwner())
	defer ctx.Close()
	var doomed [][]byte
	ctx.ForEach(func(e *core.Entry) bool {
		if r.Owner(ring.Hash(e.Key)) != self {
			doomed = append(doomed, append([]byte(nil), e.Key...))
		}
		return true
	})
	for _, k := range doomed {
		ctx.Delete(k) //nolint:errcheck // raced deletes are fine
	}
}

// --- durable ring geometry -------------------------------------------------

// ringManifest (ring.json) is a cluster directory's authoritative ring
// geometry. Written at creation and advanced only when a migration
// completes, so a directory always reopens onto a ring that places every
// key where it actually is.
type ringManifest struct {
	Shards       int `json:"shards"`
	VirtualNodes int `json:"virtual_nodes"`
}

// reshardMarker (reshard.json) exists while a migration is in flight (or
// died in flight). Its presence at open time means placement may include
// strays — partial copies, un-purged sources — and triggers a sweep
// against the manifest ring.
type reshardMarker struct {
	FromShards int `json:"from_shards"`
	ToShards   int `json:"to_shards"`
}

const (
	ringManifestName  = "ring.json"
	reshardMarkerName = "reshard.json"
)

func writeRingManifest(dir string, shards, vnodes int) error {
	data, err := json.Marshal(ringManifest{Shards: shards, VirtualNodes: vnodes})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ringManifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("memcached: ring manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ringManifestName)); err != nil {
		return fmt.Errorf("memcached: ring manifest: %w", err)
	}
	return nil
}

// readRingManifest returns nil (no error) when the directory has no
// manifest — a pre-resharding layout, placed by the caller's config.
func readRingManifest(dir string) (*ringManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ringManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("memcached: ring manifest: %w", err)
	}
	var m ringManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("memcached: ring manifest corrupt: %w", err)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("memcached: ring manifest: bad shard count %d", m.Shards)
	}
	return &m, nil
}

func writeReshardMarker(dir string, from, to int) error {
	data, err := json.Marshal(reshardMarker{FromShards: from, ToShards: to})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, reshardMarkerName), data, 0o644); err != nil {
		return fmt.Errorf("memcached: reshard marker: %w", err)
	}
	return nil
}

func hasReshardMarker(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, reshardMarkerName))
	return err == nil
}

func removeReshardMarker(dir string) {
	os.Remove(filepath.Join(dir, reshardMarkerName)) //nolint:errcheck
}
