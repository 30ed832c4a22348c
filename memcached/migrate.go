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

// Live resharding. Resize(newShards) computes the ring.Plan between the
// current and target rings and streams exactly the moved hash segments
// between shards in the background, while clients keep serving. A resize
// is one state of the topology: it carries the migration beside the old
// ring, and every operation routes by the old ring until the one cutover.
// The protocol:
//
//  1. Walk each source shard once (one ForEach pass, shared across that
//     source's pending segments) and bucket the keys by plan segment.
//  2. Bulk-copy each segment in batches: a BatchExport sub-batch on the
//     source (one gate crossing, no LRU rejuvenation, absolute expiry
//     carried along) feeds a BatchInstall sub-batch on the destination
//     (one crossing, CAS generation preserved verbatim — shard-disjoint
//     CAS spaces make the source's generations safe to replay there).
//     A write that lands in a moving segment marks its key dirty after
//     its crossing, so a dirty set holds every key written since the
//     migration began.
//  3. Cut over once: recopy the dirty sets without the lock (export misses
//     propagate as deletes), then, under routeMu's write lock — no client
//     operation in flight — recopy what was written meanwhile, advance
//     ring.json, and swap the topology to the new ring.
//  4. Purge the sources' copies of moved keys.
//
// Until step 3's swap the sources are authoritative, and every way out
// short of it — a failed recopy, a failed manifest write, an abort, a park
// — leaves them so: a write is never acknowledged by a shard the old ring
// does not name, so none is lost when the destinations' copies are purged.
//
// The migrator runs as client-grade work: its export/install batches
// cross the gate through ordinary sessions, so a migrator crash — the
// migrate.mid_segment fault point between batches, or a crash inside a
// crossing — is survived exactly like any client crash. Both shards
// repair online, the attempt's processes are abandoned, and a fresh
// attempt re-walks the segments not yet copied (copying again is
// idempotent because Install overwrites, and the dirty sets stay).

// fpMigrateMidSegment fires between copy batches of a segment, and once
// more after its last batch, before the segment counts as copied. The
// crash-isolation tier arms it to kill the migrator at the worst possible
// moment and prove both shards stay healthy and the migration is
// restartable.
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

// migSeg is one plan segment's migration state: whether its bulk copy is
// done, and the keys written in it since the migration began.
type migSeg struct {
	seg    ring.Segment
	copied atomic.Bool

	dmu   sync.Mutex
	dirty map[string]struct{}
}

// markDirty records keys for the cutover's recopy.
func (s *migSeg) markDirty(keys ...[]byte) {
	s.dmu.Lock()
	for _, k := range keys {
		s.dirty[string(k)] = struct{}{}
	}
	s.dmu.Unlock()
}

// takeDirty empties the dirty set and returns what it held.
func (s *migSeg) takeDirty() [][]byte {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	keys := make([][]byte, 0, len(s.dirty))
	for k := range s.dirty {
		keys = append(keys, []byte(k))
	}
	clear(s.dirty)
	return keys
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

	cc atomic.Pointer[ClusterClient] // the current attempt's process, for KillMigrator
}

// active reports whether the migration has yet to reach its terminal
// state (purge included).
func (m *migration) active() bool {
	select {
	case <-m.finished:
		return false
	default:
		return true
	}
}

func (m *migration) segmentsCopied() int {
	n := 0
	for _, s := range m.segs {
		if s.copied.Load() {
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

// markWritten dirty-marks key when it lies in a moving segment. A client
// operation calls it after its write's crossing, still under its routeMu
// stripe, so the cutover's locked recopy sees every mark of every write
// that has landed.
func (m *migration) markWritten(key []byte) {
	if i := m.segFor(ring.Hash(key)); i >= 0 {
		m.segs[i].markDirty(key)
	}
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

// Resize rebalances the cluster to newShards shards, live. New shards (on
// grow) are created and attached immediately; the keyspace then migrates
// in the background and the authoritative ring advances at the one
// cutover, once every moved segment has been copied. Shrink migrates the
// dying shards' keyspace onto the survivors and leaves the drained shards
// attached (and empty) until Shutdown. Returns once the migration is
// underway; WaitResize or MigrationStatus observe completion. One resize
// runs at a time, and only while every shard is healthy.
func (c *Cluster) Resize(newShards int) error {
	if newShards < 1 {
		return fmt.Errorf("memcached: resize to %d shards", newShards)
	}
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	if m := c.lastMig.Load(); m != nil && m.active() {
		return ErrResizeInProgress
	}
	top := c.top()
	if newShards == top.ring.Shards() {
		return nil
	}
	// The migrator walks every shard with direct contexts, which a store
	// under repair or poisoned would stall.
	for i := range top.shards {
		if st := c.State(i); st != ShardHealthy {
			return fmt.Errorf("memcached: resize refused: shard %d is not healthy (state %d)", i, st)
		}
	}
	to, err := ring.New(newShards, top.ring.VirtualNodes())
	if err != nil {
		return err
	}
	var grown []*Bookkeeper
	shutdownGrown := func() {
		for _, nb := range grown {
			nb.Shutdown() //nolint:errcheck
		}
	}
	for i := len(top.shards); i < newShards; i++ {
		b, err := CreateStore(c.cfg.shardConfig(i))
		if err != nil {
			shutdownGrown()
			return fmt.Errorf("memcached: shard %d: %w", i, err)
		}
		c.install(b, i)
		grown = append(grown, b)
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
			shutdownGrown()
			return err
		}
	}
	c.publish(func(t *topology) {
		for _, b := range grown {
			t.shards, t.health = append(t.shards, b), append(t.health, &shardHealth{})
		}
		t.mig = m
	})
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

// MigrationStatus is the live-resharding snapshot: the most recent
// resize's progress, served at /admin/migration, and the cumulative
// counters that /metrics and stats render.
type MigrationStatus struct {
	Active        bool `json:"active"`
	FromShards    int  `json:"from_shards"`
	ToShards      int  `json:"to_shards"`
	SegmentsTotal int  `json:"segments_total"`
	// SegmentsDone counts the segments whose keys have been copied to
	// their destination. They move all at once, at the one cutover.
	SegmentsDone int    `json:"segments_done"`
	KeysMoved    uint64 `json:"keys_moved"` // entries installed on a destination, cumulative
	Retries      uint64 `json:"retries"`    // migrator attempts restarted after a crash
	Error        string `json:"error,omitempty"`
	// Resizes counts resizes begun, and SegmentsMoved grows by the plan's
	// size at each one's cutover; /admin/migration leaves both to /metrics.
	Resizes       uint64 `json:"-"`
	SegmentsMoved uint64 `json:"-"`
}

// state renders Active as a gauge: 1 while a resize is live, else 0.
func (st *MigrationStatus) state() int {
	if st.Active {
		return 1
	}
	return 0
}

// MigrationStatus snapshots the migration plane; the progress fields are
// zero if no resize was ever started.
func (c *Cluster) MigrationStatus() MigrationStatus {
	st := MigrationStatus{
		KeysMoved:     c.keysMoved.Load(),
		Retries:       c.migRetries.Load(),
		Resizes:       c.resizes.Load(),
		SegmentsMoved: c.segsMoved.Load(),
	}
	m := c.lastMig.Load()
	if m == nil {
		return st
	}
	st.Active = m.active()
	st.FromShards, st.ToShards = m.from.Shards(), m.to.Shards()
	st.SegmentsTotal, st.SegmentsDone = len(m.segs), m.segmentsCopied()
	if !st.Active && m.err != nil {
		st.Error = m.err.Error()
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
	if m := c.lastMig.Load(); m != nil {
		if cc := m.cc.Load(); cc != nil {
			cc.Kill()
		}
	}
}

// run is the migrator goroutine: stray sweep, then bounded attempts,
// then a terminal finish/abort/park.
func (m *migration) run() {
	// Delete every entry the old ring does not place where it sits before
	// any byte moves. A shard reopened or supervisor-rebuilt from a
	// checkpoint older than the last resize can carry keys the current
	// ring places elsewhere; unreachable today, such a key must not be
	// resurrected when this resize routes its hash back to that shard.
	// After the sweep the copy protocol owns everything that moves.
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

// attempt copies every segment not yet copied and cuts over, with a fresh
// client identity. Any panic out of the copy machinery (fault points,
// killed-process paths) is contained here: the attempt fails, the
// migration — and both shards — survive.
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
	m.cc.Store(cc)
	defer func() {
		m.cc.Store(nil)
		cc.Close() // its session too
	}()
	cli, err := cc.NewSession()
	if err != nil {
		return err
	}
	// One walk per source shard covers all its pending segments.
	bySrc := make(map[int][]int)
	var srcs []int
	for i, s := range m.segs {
		if s.copied.Load() {
			continue
		}
		if len(bySrc[s.seg.From]) == 0 {
			srcs = append(srcs, s.seg.From)
		}
		bySrc[s.seg.From] = append(bySrc[s.seg.From], i)
	}
	sort.Ints(srcs)
	for _, src := range srcs {
		keysBySeg, err := m.collectKeys(src)
		if err != nil {
			return err
		}
		for _, si := range bySrc[src] {
			s, keys := m.segs[si], keysBySeg[si]
			if err := m.copyKeys(cli, s, keys, false); err != nil {
				return fmt.Errorf("segment %d: %w", si, err)
			}
			if len(keys) > 0 {
				// The canonical mid-segment moment: data copied, cutover pending.
				fpMigrateMidSegment.Maybe()
			}
			s.copied.Store(true)
		}
	}
	return m.cutover(cli)
}

// collectKeys walks source shard src once and buckets every key belonging
// to one of its pending segments. Keys written after the walk are covered
// by the dirty set; keys deleted after it surface as export misses. A
// poisoned source fails the attempt unwalked: its dead crasher may hold a
// stripe the walk would wait on forever.
func (m *migration) collectKeys(src int) (map[int][][]byte, error) {
	b := m.c.top().shards[src]
	if b.Library().Poisoned() {
		return nil, fmt.Errorf("memcached: shard %d is poisoned", src)
	}
	out := make(map[int][][]byte)
	ctx := b.ownCtx()
	defer ctx.Close()
	ctx.ForEach(func(e *core.Entry) bool {
		i := m.segFor(ring.Hash(e.Key))
		if i >= 0 && m.segs[i].seg.From == src && !m.segs[i].copied.Load() {
			out[i] = append(out[i], append([]byte(nil), e.Key...))
		}
		return true
	})
	return out, nil
}

// copyKeys moves keys from s's source to its destination, one export/
// install crossing pair per migBatchSize keys: the bulk copy of the walk's
// keys, or (recopy) a dirty set, where an export miss is a delete to carry
// over. Only the bulk copy passes the fault point, which may write through
// the cluster.
func (m *migration) copyKeys(cli *ClusterSession, s *migSeg, keys [][]byte, recopy bool) error {
	t := m.c.top()
	from, err := cli.sess(t, s.seg.From)
	if err != nil {
		return err
	}
	to, err := cli.sess(t, s.seg.To)
	if err != nil {
		return err
	}
	for off := 0; off < len(keys); off += migBatchSize {
		if off > 0 && !recopy {
			fpMigrateMidSegment.Maybe()
		}
		if m.stopped.Load() {
			return errMigrationParked
		}
		if err := m.copyBatch(from, to, keys[off:min(off+migBatchSize, len(keys))], recopy); err != nil {
			return err
		}
	}
	return nil
}

// copyBatch moves one batch: export on the source (one crossing), install
// on the destination (one crossing). Export misses are keys deleted since
// the walk; in recopy mode a miss means the source-side write was a
// delete, which must propagate as a delete.
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

// recopy carries every segment's dirty set to its destination. The sets
// not yet copied when a copy fails, or crashes, are marked again: their
// keys stay dirty.
func (m *migration) recopy(cli *ClusterSession) error {
	dirty, done := make([][][]byte, len(m.segs)), 0
	for i, s := range m.segs {
		dirty[i] = s.takeDirty()
	}
	defer func() {
		for i := done; i < len(m.segs); i++ {
			m.segs[i].markDirty(dirty[i]...)
		}
	}()
	for ; done < len(m.segs); done++ {
		if err := m.copyKeys(cli, m.segs[done], dirty[done], true); err != nil {
			return err
		}
	}
	return nil
}

// cutover is the migration's one transition. Every segment is copied, so
// one recopy round without the lock carries most of the dirty sets; then,
// under routeMu's write lock, with no client operation in flight, a final
// round carries what was written meanwhile, ring.json advances, and the
// topology swaps to the new ring. A failure returns before the swap, so
// the sources stay authoritative.
func (m *migration) cutover(cli *ClusterSession) error {
	if err := m.recopy(cli); err != nil {
		return err
	}
	c := m.c
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if err := m.recopy(cli); err != nil {
		return err
	}
	if c.cfg.Dir != "" {
		if err := writeRingManifest(c.cfg.Dir, m.to.Shards(), m.to.VirtualNodes()); err != nil {
			return err
		}
	}
	next := c.top().clone()
	next.ring, next.mig = m.to, nil
	c.topo.Store(next)
	c.segsMoved.Add(uint64(len(m.segs)))
	return nil
}

// finish follows a cutover: the sweep deletes every moved key's source
// copy. A crash mid-sweep reopens onto the new ring (the manifest advanced
// first) with the marker still there to finish it.
func (m *migration) finish() {
	m.sweep()
	m.end(nil)
}

// abort ends the migration on the old ring after repeated attempt
// failures: the sources never lost a byte, and the sweep deletes whatever
// copies landed on the destinations.
func (m *migration) abort(err error) {
	m.leave()
	m.sweep()
	m.end(err)
}

// park stops without cleanup (Shutdown): the marker stays so the next
// OpenCluster sweeps, and the caller is about to flush every shard.
func (m *migration) park(err error) {
	m.leave()
	m.end(err)
}

// leave takes the migration out of the topology, which keeps the old ring.
func (m *migration) leave() { m.c.publish(func(t *topology) { t.mig = nil }) }

// sweep deletes the strays the authoritative ring does not place, then
// the marker that said there might be some — unless a poisoned shard went
// unswept, whose strays the next OpenCluster's sweep must still find.
func (m *migration) sweep() {
	if m.c.purgeStale() && m.c.cfg.Dir != "" {
		removeReshardMarker(m.c.cfg.Dir)
	}
}

func (m *migration) end(err error) {
	m.err = err
	close(m.finished)
}

// waitHealthy blocks until every shard's library is out of repair, so a
// fresh attempt doesn't immediately impale itself on a poisoned gate. A
// poisoned shard ends the wait at once: only a rebuild clears it, and a
// rebuild waits for the migration.
func (m *migration) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		healthy := true
		for i, b := range m.c.top().shards {
			lib := b.Library()
			if lib.Poisoned() {
				return fmt.Errorf("memcached: shard %d is poisoned", i)
			}
			healthy = healthy && !lib.Recovering()
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
// after an aborted one. It reports whether every shard was swept.
func (c *Cluster) purgeStale() bool { return c.purgeRing(c.top().ring) }

func (c *Cluster) purgeRing(r *ring.Ring) bool {
	all := true
	for i, b := range c.top().shards {
		all = purgeShard(b, r, i) && all
	}
	return all
}

// purgeShard deletes the entries of b that r places elsewhere, and reports
// false, walking nothing, when b is poisoned: its dead crasher may hold a
// stripe the walk would wait on forever.
func purgeShard(b *Bookkeeper, r *ring.Ring, self int) bool {
	if b.Library().Poisoned() {
		return false
	}
	ctx := b.ownCtx()
	defer ctx.Close()
	var doomed [][]byte
	ctx.ForEach(func(e *core.Entry) bool {
		if r.Owner(ring.Hash(e.Key)) != self {
			doomed = append(doomed, append([]byte(nil), e.Key...))
		}
		return true
	})
	var res core.BatchResult // raced deletes are fine
	for _, k := range doomed {
		ctx.Do(&core.BatchOp{Code: core.BatchDelete, Key: k}, &res)
	}
	return true
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
