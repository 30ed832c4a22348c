package memcached

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/metrics"
	"plibmc/internal/mono"
	"plibmc/internal/ring"
)

// A Cluster fans one keyspace across N independent protected-library
// stores. Each shard is a full Bookkeeper — its own shared heap, backing
// file, A/B checkpoint slots, repair coordinator, and watchdog — so a
// crash, scrub, or repair pass on one shard never stalls the others: the
// isolation boundary of the paper's single store becomes the isolation
// boundary of each shard. Keys are placed by a deterministic consistent-
// hash ring (internal/ring) that the in-process fast lane, the socket
// proxy (proxy.go), and offline tooling (plibdump over a shard directory)
// all share.
//
// A key lives on exactly one shard: the one the authoritative ring names
// or, mid-migration, the one the dual-ring rule in routeHash names. Every
// read and write of a key goes to that shard, so cluster operations are
// linearizable per key with no second copy to keep coherent.
//
// The ring and shard set live together in one immutable topology
// snapshot behind an atomic pointer: a live resize
// (migrate.go) installs a wider shard set up front, streams the moved
// hash segments between shards in the background, and swaps in the new
// ring only when every segment has cut over. Routing is therefore always
// one atomic load plus, during a migration, the dual-ring decision in
// routeHash.

// ShardImageName returns the backing-file name of shard i inside a
// cluster directory — the naming contract between the cluster and
// plibdump's directory mode.
func ShardImageName(i int) string { return fmt.Sprintf("shard-%03d.img", i) }

// ClusterConfig configures a sharded store.
type ClusterConfig struct {
	// Shards is the store count. Required, ≥ 1.
	Shards int
	// VirtualNodes per shard on the ring (0 = ring.DefaultVirtualNodes).
	VirtualNodes int
	// Dir, when set, holds one backing file per shard (shard-000.img …);
	// each shard gets its own A/B checkpoint slots beside its image, plus
	// a ring.json manifest recording the authoritative ring geometry and,
	// during a live resize, a reshard.json marker.
	// Empty means every shard is in-memory only.
	Dir string
	// Store is the per-shard configuration template. Path is overridden
	// per shard (from Dir); every other field applies to each shard.
	Store Config

	// Clock, when set, overrides every shard's wall clock — including
	// shards created later by Resize. Tests that freeze time use this so
	// a live resize doesn't mint shards with real clocks.
	Clock func() int64

	// BreakerThreshold is the run of consecutive crossing-level failures
	// (recovery timeouts, crashed crossings) that trips a shard's
	// circuit breaker; poison trips it immediately regardless.
	// 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker refuses every call
	// before it lets one probe through, measured from the trip. A probe
	// that has not reported within one cooldown is handed to the next
	// caller. 0 means 1s.
	BreakerCooldown time.Duration
}

// topology is one immutable snapshot of the cluster's shape: the
// authoritative ring plus the attachable shard set (which may be wider
// than the ring mid-migration, and after a shrink keeps the drained
// shards attachable until Shutdown). Swapped wholesale under routeMu.
type topology struct {
	ring   *ring.Ring
	shards []*Bookkeeper
}

// Cluster is the multi-store handle.
type Cluster struct {
	cfg  ClusterConfig
	topo atomic.Pointer[topology]

	// mig is the live migration, nil in steady state. Installed under
	// routeMu's write lock so no operation can straddle the moment the
	// dual-ring routing rules take effect; cleared lock-free when the
	// last segment is done (at that point both routing modes agree).
	mig     atomic.Pointer[migration]
	lastMig atomic.Pointer[migration] // survives completion, for status/wait
	routeMu routeLock
	// resizeMu serializes Resize setup (one resize at a time).
	resizeMu sync.Mutex

	// Migration accounting (cumulative across resizes).
	resizes    atomic.Uint64 // Resize calls that started a migration
	segsMoved  atomic.Uint64 // segments cut over
	keysMoved  atomic.Uint64 // entries installed on their destination
	migRetries atomic.Uint64 // migrator attempts restarted after a crash

	// Lifecycle plane (supervisor.go): per-shard breaker + rebuild
	// records, grown lazily, kept outside topology so they survive
	// rebuilds and resizes.
	health   atomic.Pointer[[]*shardHealth]
	healthMu sync.Mutex

	// Background-loop cadences, recorded so a rebuilt shard resumes its
	// maintenance and checkpoint loops at the cluster's rate.
	maintEvery atomic.Int64 // nanoseconds; 0 = not running
	ckptEvery  atomic.Int64

	// Supervisor loop handle.
	supMu   sync.Mutex
	supStop chan struct{}
	supDone chan struct{}

	// now is the breakers' clock (mono.Now; tests step it). Only a
	// refused call reads it.
	now func() int64
}

func (c *Cluster) top() *topology { return c.topo.Load() }

// routeStripes is the routing lock's width: enough that the readers of a
// busy host seldom share a stripe, few enough that a resize or a rebuild,
// the only writers, can cheaply take them all.
const routeStripes = 16

// routeLock is the routing barrier as a big-reader lock. Every operation
// read-locks one stripe for its whole route-and-access span — the stripe
// its ClusterSession or proxy connection was handed, round-robin, at
// creation — so operations of different threads write different lines,
// where one RWMutex made every operation of every thread add to the same
// reader count. A writer takes every stripe, in order, which excludes
// every reader exactly as the single lock did.
type routeLock struct {
	stripes [routeStripes]struct {
		sync.RWMutex
		_ [64]byte // no two stripes share a cache line
	}
	next atomic.Uint32
}

// stripe hands a new reader its stripe.
func (l *routeLock) stripe() int { return int(l.next.Add(1) % routeStripes) }

func (l *routeLock) Lock() {
	for i := range l.stripes {
		l.stripes[i].Lock()
	}
}

func (l *routeLock) Unlock() {
	for i := range l.stripes {
		l.stripes[i].Unlock()
	}
}

func (cfg *ClusterConfig) buildRing() (*ring.Ring, error) {
	return ring.New(cfg.Shards, cfg.VirtualNodes)
}

func (cfg *ClusterConfig) shardConfig(i int) Config {
	sc := cfg.Store
	if cfg.Dir != "" {
		sc.Path = filepath.Join(cfg.Dir, ShardImageName(i))
	} else {
		sc.Path = ""
	}
	return sc
}

// setupShard applies the cluster-level invariants to a freshly created or
// reopened shard: the disjoint CAS space and the (optional) test clock.
func (cfg *ClusterConfig) setupShard(b *Bookkeeper, i int) {
	b.Store().SeedCAS(shardCASBase(i)) // no-op past the base; see SeedCAS
	if cfg.Clock != nil {
		b.Store().SetClock(cfg.Clock)
	}
}

// CreateCluster formats N fresh shards.
func CreateCluster(cfg ClusterConfig) (*Cluster, error) {
	r, err := cfg.buildRing()
	if err != nil {
		return nil, err
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("memcached: cluster dir: %w", err)
		}
	}
	var shards []*Bookkeeper
	for i := 0; i < cfg.Shards; i++ {
		b, err := CreateStore(cfg.shardConfig(i))
		if err != nil {
			for _, prev := range shards {
				prev.Shutdown() //nolint:errcheck
			}
			return nil, fmt.Errorf("memcached: shard %d: %w", i, err)
		}
		cfg.setupShard(b, i)
		shards = append(shards, b)
	}
	c := &Cluster{cfg: cfg, now: mono.Now}
	c.topo.Store(&topology{ring: r, shards: shards})
	if cfg.Dir != "" {
		if err := writeRingManifest(cfg.Dir, r.Shards(), r.VirtualNodes()); err != nil {
			c.Shutdown() //nolint:errcheck
			return nil, err
		}
	}
	return c, nil
}

// shardCASBase puts each shard's CAS generations in a disjoint space
// (shard index in the top 16 bits of a 64-bit counter), so a CAS token
// identifies one write cluster-wide — which is also what lets the
// segment migrator move an entry between shards with its generation
// preserved: the token a client took before the move still validates on
// the destination after it.
func shardCASBase(i int) uint64 { return uint64(i) << 48 }

// OpenCluster reloads every shard from its backing file under cfg.Dir.
// Each shard goes through the candidate-fallback load (base image plus
// A/B checkpoint slots, newest verifying generation first) independently.
// The ring.json manifest, when present, overrides cfg's ring geometry —
// a cluster resized while running reopens at its grown size regardless of
// what the caller remembers. A leftover reshard.json marker (crash mid-
// migration or mid-purge) triggers a placement sweep that deletes every
// entry the manifest ring does not place on the shard holding it.
func OpenCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("memcached: OpenCluster requires a directory")
	}
	if man, err := readRingManifest(cfg.Dir); err != nil {
		return nil, err
	} else if man != nil {
		cfg.Shards = man.Shards
		cfg.VirtualNodes = man.VirtualNodes
	}
	r, err := cfg.buildRing()
	if err != nil {
		return nil, err
	}
	// A shard whose images are all corrupt or missing no longer fails
	// the whole open: it degrades to an empty rebuild (flagged in stats)
	// so the surviving shards' data comes back online. Only when *every*
	// shard fails to open is the error surfaced — that shape means the
	// directory itself is wrong, not one damaged failure domain.
	var shards []*Bookkeeper
	var degraded []int
	var openErrs []string
	for i := 0; i < cfg.Shards; i++ {
		b, err := OpenStore(cfg.shardConfig(i))
		if err != nil {
			openErrs = append(openErrs, fmt.Sprintf("shard %d: %v", i, err))
			b, err = createShardPastCandidates(cfg.shardConfig(i))
			if err != nil {
				for _, prev := range shards {
					prev.Shutdown() //nolint:errcheck
				}
				return nil, fmt.Errorf("memcached: shard %d: %w", i, err)
			}
			degraded = append(degraded, i)
		}
		cfg.setupShard(b, i)
		shards = append(shards, b)
	}
	if len(degraded) == cfg.Shards {
		for _, prev := range shards {
			prev.Shutdown() //nolint:errcheck
		}
		return nil, fmt.Errorf("memcached: no shard opened from %s: %s",
			cfg.Dir, strings.Join(openErrs, "; "))
	}
	c := &Cluster{cfg: cfg, now: mono.Now}
	c.topo.Store(&topology{ring: r, shards: shards})
	for _, i := range degraded {
		h := c.shardHealth(i)
		h.rebuiltAtOpen.Store(true)
		h.rebuiltEmpty.Add(1)
	}
	if hasReshardMarker(cfg.Dir) {
		// An interrupted migration parked here. The sources never lose
		// data before the manifest advances, so the manifest ring is
		// always authoritative; sweeping strays (partial copies on a
		// destination, moved keys not yet deleted from a source) restores
		// the single-owner invariant.
		c.purgeStale()
		removeReshardMarker(cfg.Dir)
	}
	return c, nil
}

// Shards returns the attachable shard count. During a grow migration this
// already includes the new shards; after a shrink the drained shards stay
// attachable (and counted) until Shutdown, while Ring().Shards() reflects
// the routing width.
func (c *Cluster) Shards() int { return len(c.top().shards) }

// Shard exposes one shard's Bookkeeper (fault injection, per-shard
// maintenance, direct inspection).
func (c *Cluster) Shard(i int) *Bookkeeper { return c.top().shards[i] }

// Ring exposes the authoritative placement ring.
func (c *Cluster) Ring() *ring.Ring { return c.top().ring }

// ShardFor returns the shard owning key on the authoritative ring. During
// a live migration the instantaneous owner may differ per segment; use a
// session's operations (which route with the migration rules) for access.
func (c *Cluster) ShardFor(key []byte) int { return c.top().ring.Shard(key) }

// StartMaintenance starts every shard's maintenance loop. The cadence is
// recorded so a shard rebuilt by the supervisor resumes it.
func (c *Cluster) StartMaintenance(interval time.Duration) {
	c.maintEvery.Store(int64(interval))
	for _, b := range c.top().shards {
		b.StartMaintenance(interval)
	}
}

// StartCheckpointing starts every shard's checkpoint loop. The cadence is
// recorded so a shard rebuilt by the supervisor resumes it.
func (c *Cluster) StartCheckpointing(interval time.Duration) {
	c.ckptEvery.Store(int64(interval))
	for _, b := range c.top().shards {
		b.StartCheckpointing(interval)
	}
}

// Shutdown stops and flushes every shard. A migration still in flight is
// asked to park first (its marker stays on disk, so the next OpenCluster
// sweeps and the resize can be reissued). All shards are attempted; the
// first error is returned.
func (c *Cluster) Shutdown() error {
	c.StopSupervisor()
	if m := c.mig.Load(); m != nil {
		m.stopped.Store(true)
		select {
		case <-m.finished:
		case <-time.After(10 * time.Second):
		}
	}
	var first error
	for _, b := range c.top().shards {
		if b == nil {
			continue
		}
		if err := b.Shutdown(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats aggregates the operation counters across shards.
func (c *Cluster) Stats() core.Stats {
	var agg core.Stats
	for _, b := range c.top().shards {
		addStats(&agg, b.Stats())
	}
	return agg
}

// addStats sums every counter of s into dst. core.Stats is uniformly
// uint64 counters, which the reflection walk relies on.
func addStats(dst *core.Stats, s core.Stats) {
	dv := reflect.ValueOf(dst).Elem()
	sv := reflect.ValueOf(s)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetUint(dv.Field(i).Uint() + sv.Field(i).Uint())
	}
}

// ClusterClient is one application process attached to the cluster: a
// ClientProcess per shard, sharing one uid. Attachment to shards added by
// a later Resize happens lazily on first route there.
type ClusterClient struct {
	c   *Cluster
	uid int

	mu    sync.Mutex
	procs []*ClientProcess
	// books records which Bookkeeper each proc is attached to. When the
	// supervisor rebuilds a shard the topology entry changes identity;
	// the next access re-attaches to the replacement instead of carrying
	// calls into the dropped (poisoned) store forever.
	books []*Bookkeeper
}

// NewClientProcess attaches a client application to every current shard.
func (c *Cluster) NewClientProcess(uid int) (*ClusterClient, error) {
	cc := &ClusterClient{c: c, uid: uid}
	for i := range c.top().shards {
		if _, err := cc.proc(i); err != nil {
			return nil, err
		}
	}
	return cc, nil
}

// proc returns the per-shard client process, attaching on demand to
// shards that joined after this client was created and re-attaching when
// the supervisor has replaced the shard's Bookkeeper.
func (cc *ClusterClient) proc(shard int) (*ClientProcess, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for len(cc.procs) <= shard {
		i := len(cc.procs)
		b := cc.c.top().shards[i]
		cp, err := b.NewClientProcess(cc.uid)
		if err != nil {
			return nil, fmt.Errorf("memcached: shard %d attach: %w", i, err)
		}
		cc.procs = append(cc.procs, cp)
		cc.books = append(cc.books, b)
	}
	if b := cc.c.top().shards[shard]; cc.books[shard] != b {
		cp, err := b.NewClientProcess(cc.uid)
		if err != nil {
			return nil, fmt.Errorf("memcached: shard %d re-attach: %w", shard, err)
		}
		cc.procs[shard], cc.books[shard] = cp, b
	}
	return cc.procs[shard], nil
}

// Proc exposes the per-shard client process (fault injection in tests),
// attaching lazily like the data path does.
func (cc *ClusterClient) Proc(shard int) *ClientProcess {
	cp, err := cc.proc(shard)
	if err != nil {
		return nil
	}
	return cp
}

// Kill kills the client process on every attached shard.
func (cc *ClusterClient) Kill() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, cp := range cc.procs {
		cp.Kill()
	}
}

// NewSession opens one routed session: a per-shard Session bundle behind
// the Session-shaped API. Like Session, a ClusterSession models a thread
// and is not safe for concurrent use.
func (cc *ClusterClient) NewSession() (*ClusterSession, error) {
	cs := &ClusterSession{c: cc.c, cc: cc, stripe: cc.c.routeMu.stripe()}
	cs.x = cs
	for i := 0; i < cc.c.Shards(); i++ {
		if _, err := cs.sess(i); err != nil {
			cs.Close()
			return nil, err
		}
	}
	return cs, nil
}

// ClusterSession routes the Session API across shards: single-key ops go
// to the owning shard's fast lane; MGet/ExecBatch split into per-shard
// sub-batches so each shard still sees one gate crossing for its whole
// share of the batch. During a live resize every route goes through the
// dual-ring rules in routeHash, holding the key's segment guard across
// the shard access so a cutover can never slide under an in-flight op.
type ClusterSession struct {
	verbs
	c        *Cluster
	cc       *ClusterClient
	sessions []*Session
	// books mirrors ClusterClient.books at session granularity: a
	// rebuilt shard's old session is dropped and a fresh one opened on
	// the replacement store.
	books  []*Bookkeeper
	part   batchPartition
	stripe int // the routeMu stripe this session read-locks
}

// Session exposes the underlying per-shard session (tests, ablation).
func (s *ClusterSession) Session(shard int) *Session { return s.sessions[shard] }

// sess returns the per-shard session, attaching on demand to shards that
// joined after this session was opened. ClusterSession models a thread,
// so the slice needs no lock; the shared process table locks internally.
func (s *ClusterSession) sess(shard int) (*Session, error) {
	for len(s.sessions) <= shard {
		i := len(s.sessions)
		cp, err := s.cc.proc(i)
		if err != nil {
			return nil, err
		}
		ss, err := cp.NewSession()
		if err != nil {
			return nil, fmt.Errorf("memcached: shard %d session: %w", i, err)
		}
		s.sessions = append(s.sessions, ss)
		s.books = append(s.books, s.c.top().shards[i])
	}
	if b := s.c.top().shards[shard]; s.books[shard] != b {
		// The supervisor replaced this shard. proc() re-attaches at the
		// process level first; then open a fresh session on it. The old
		// session belongs to a poisoned store — dropped, not closed
		// (teardown would touch the dead heap's allocator).
		cp, err := s.cc.proc(shard)
		if err != nil {
			return nil, err
		}
		ss, err := cp.NewSession()
		if err != nil {
			return nil, fmt.Errorf("memcached: shard %d session re-attach: %w", shard, err)
		}
		s.sessions[shard], s.books[shard] = ss, b
	}
	return s.sessions[shard], nil
}

// Close closes every per-shard session, except one on a store the
// supervisor has since replaced: like sess, it drops that one, because
// teardown would touch the dead heap's allocator.
func (s *ClusterSession) Close() {
	shards := s.c.top().shards
	for i, ss := range s.sessions {
		if ss != nil && i < len(shards) && s.books[i] == shards[i] {
			ss.Close()
		}
	}
}

// batchPartition is a ClusterSession's batch working memory: each shard's
// share of the batch, where in the batch each op came from, and the slots a
// shard fills before its results go to their places. It belongs to the
// session, which models the thread, batch after batch.
type batchPartition struct {
	ops [][]BatchOp
	idx [][]int
	res []BatchResult
}

// readOnly reports whether a batch op leaves its entry as it found it;
// everything else is dirty-marked when it lands in a migrating segment.
func readOnly(code core.BatchCode) bool {
	return code == BatchGet || code == BatchExport
}

// do is the cluster's single-op path: route the key, run the op on its
// authoritative shard, and — when the key sits in a mid-migration segment —
// hold the segment's shared guard across the access and dirty-mark a write
// so the pre-cutover recopy carries it to the destination.
func (s *ClusterSession) do(op *BatchOp, r *BatchResult) {
	mu := &s.c.routeMu.stripes[s.stripe]
	mu.RLock()
	defer mu.RUnlock()
	sh, g := s.c.routeHash(ring.Hash(op.Key), nil)
	s.doShard(sh, op, r)
	if g != nil {
		if !readOnly(op.Code) {
			// Conservatively dirty even on error: a failed op may still
			// have observed state, and one extra recopy is cheaper than
			// reasoning about which error paths mutate.
			g.markDirty(op.Key)
		}
		g.release()
	}
}

func (s *ClusterSession) doShard(shard int, op *BatchOp, r *BatchResult) {
	if err := s.c.shardAllow(shard); err != nil {
		*r = BatchResult{Err: err}
		return
	}
	// Attach failures feed the breaker too (a probe admitted by allow
	// must always be reported, or the probe slot leaks). The op's own
	// outcome — a miss, a CAS mismatch — stays in r.Err and reaches the
	// breaker as nil: it is not the shard's failure, and classifying it
	// would cost a miss more than the report itself.
	ss, err := s.sess(shard)
	if err != nil {
		*r = BatchResult{Err: err}
	} else {
		err = ss.cross(op, r)
	}
	s.c.shardReport(shard, err)
}

// FlushAll removes every entry on every shard (including shards still
// receiving a migration), each behind its breaker like any operation. It
// stops at the first shard that refuses or fails.
func (s *ClusterSession) FlushAll() error {
	mu := &s.c.routeMu.stripes[s.stripe]
	mu.RLock()
	defer mu.RUnlock()
	for i := 0; i < s.c.Shards(); i++ {
		if err := s.c.shardAllow(i); err != nil {
			return err
		}
		ss, err := s.sess(i)
		if err == nil {
			err = ss.FlushAll()
		}
		s.c.shardReport(i, err)
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates the store counters across shards.
func (s *ClusterSession) Stats() (core.Stats, error) {
	var agg core.Stats
	for i := 0; i < s.c.Shards(); i++ {
		ss, err := s.sess(i)
		if err != nil {
			return core.Stats{}, err
		}
		st, err := ss.Stats()
		if err != nil {
			return core.Stats{}, err
		}
		addStats(&agg, st)
	}
	return agg, nil
}

func (s *ClusterSession) batchShard(shard int, ops []BatchOp, res []BatchResult, vbuf []byte) ([]byte, error) {
	if err := s.c.shardAllow(shard); err != nil {
		return nil, err
	}
	ss, err := s.sess(shard)
	if err == nil {
		vbuf, err = ss.batch(ops, res, vbuf)
	}
	s.c.shardReport(shard, err)
	return vbuf, err
}

// batch is the cluster's batch path: partition ops by owning shard (in the
// session's partition), hand each shard its share — one crossing per
// involved shard — and put the results in their places in out. One value
// buffer is threaded through every shard and returned as grown: an append
// that relocates it leaves earlier shards' values valid where they were. A
// shard whose crossing fails (open breaker, crash, reaped session, dead
// process) gets the wrapped error and no value in each of its slots, and
// the batch goes on, so the returned error is always nil. During a
// migration, every touched segment's guard is acquired once (re-taking a
// held RLock could deadlock against a pending cutover) and held until every
// crossing retires, and writes into such segments are dirty-marked at route
// time.
func (s *ClusterSession) batch(ops []BatchOp, out []BatchResult, vbuf []byte) ([]byte, error) {
	c, p := s.c, &s.part
	mu := &c.routeMu.stripes[s.stripe]
	mu.RLock()
	defer mu.RUnlock()
	n := c.Shards()
	for len(p.ops) < n { // a live resize can widen the cluster
		p.ops, p.idx = append(p.ops, nil), append(p.idx, nil)
	}
	var held map[*migSeg]struct{}
	if c.mig.Load() != nil {
		held = make(map[*migSeg]struct{})
	}
	res := lend(&p.res, len(ops)) // no share is longer than the batch
	defer func() {
		for g := range held {
			g.release()
		}
		// The partition outlives the batch: the caller's keys and values
		// must not ride along in it.
		for sh := range p.ops {
			clear(p.ops[sh])
			p.ops[sh], p.idx[sh] = p.ops[sh][:0], p.idx[sh][:0]
		}
		clear(res)
	}()
	for i := range ops {
		sh, g := c.routeHash(ring.Hash(ops[i].Key), held)
		if g != nil {
			held[g] = struct{}{}
			if !readOnly(ops[i].Code) {
				g.markDirty(ops[i].Key)
			}
		}
		p.ops[sh] = append(p.ops[sh], ops[i])
		p.idx[sh] = append(p.idx[sh], i)
	}
	for sh := 0; sh < n; sh++ {
		share := p.ops[sh]
		if len(share) == 0 {
			continue
		}
		grown, err := s.batchShard(sh, share, res[:len(share)], vbuf)
		if err != nil { // what a prefix of the share wrote stays behind in res
			werr := fmt.Errorf("memcached: shard %d batch: %w", sh, err)
			for _, idx := range p.idx[sh] {
				out[idx] = BatchResult{Err: werr}
			}
			continue
		}
		vbuf = grown
		for j, idx := range p.idx[sh] {
			out[idx] = res[j]
		}
	}
	return vbuf, nil
}

// Healthy reports whether every attached per-shard session can still
// carry calls.
func (s *ClusterSession) Healthy() bool {
	for _, ss := range s.sessions {
		if ss != nil && !ss.Healthy() {
			return false
		}
	}
	return true
}

// ShardState is one shard's coarse health for the metrics plane.
type ShardState int

// Shard states, exported as plibmc_shard_state.
const (
	ShardHealthy    ShardState = 0
	ShardRecovering ShardState = 1
	ShardPoisoned   ShardState = 2
	// ShardRebuilding: the supervisor is running the recovery ladder on
	// this shard (detach → reopen from image → rebuild empty). Calls
	// fail fast behind the breaker until the replacement is attached.
	ShardRebuilding ShardState = 3
)

// State reports shard i's coarse health.
func (c *Cluster) State(i int) ShardState {
	if hs := c.health.Load(); hs != nil && i < len(*hs) && (*hs)[i].br.word.Load()&brStateMask == brRebuilding {
		return ShardRebuilding
	}
	lib := c.top().shards[i].Library()
	switch {
	case lib.Poisoned():
		return ShardPoisoned
	case lib.Recovering():
		return ShardRecovering
	default:
		return ShardHealthy
	}
}

// MigrationMetrics is the live-resharding snapshot: the cumulative
// counters plus the current migration's progress (zero-valued when idle).
type MigrationMetrics struct {
	State         int // 0 idle, 1 migrating
	Resizes       uint64
	SegmentsMoved uint64 // segments cut over, cumulative
	KeysMoved     uint64 // entries installed on a destination, cumulative
	Retries       uint64 // migrator attempts restarted after a crash
	SegmentsTotal int    // current migration's plan size
	SegmentsDone  int    // current migration's cutovers so far
}

// ClusterMetrics is the per-shard metrics snapshot plus the migration and
// supervisor counters.
type ClusterMetrics struct {
	Shards     []Metrics
	States     []ShardState
	Migration  MigrationMetrics
	Supervisor SupervisorMetrics
}

// Metrics collects every shard's merged snapshot.
func (c *Cluster) Metrics() ClusterMetrics {
	var cm ClusterMetrics
	cm.Migration = MigrationMetrics{
		Resizes:       c.resizes.Load(),
		SegmentsMoved: c.segsMoved.Load(),
		KeysMoved:     c.keysMoved.Load(),
		Retries:       c.migRetries.Load(),
	}
	if m := c.mig.Load(); m != nil {
		cm.Migration.State = 1
		cm.Migration.SegmentsTotal = len(m.segs)
		cm.Migration.SegmentsDone = m.segmentsDone()
	}
	cm.Supervisor = c.supervisorMetrics()
	for i, b := range c.top().shards {
		cm.Shards = append(cm.Shards, b.Metrics())
		cm.States = append(cm.States, c.State(i))
	}
	return cm
}

// Samples renders the cluster snapshot as Prometheus samples: the
// per-shard routing/health plane, then each shard's full store snapshot
// under a shard label.
func (cm *ClusterMetrics) Samples() []metrics.Sample {
	var out []metrics.Sample
	for i := range cm.Shards {
		m := &cm.Shards[i]
		shard := fmt.Sprintf("%d", i)
		g := func(name string, v float64, labels ...string) {
			out = append(out, metrics.Sample{
				Name:   name,
				Labels: metrics.L(append([]string{"shard", shard}, labels...)...),
				Value:  v,
			})
		}
		g("plibmc_shard_ops_total", float64(m.Ops.Gets), "op", "get")
		g("plibmc_shard_ops_total", float64(m.Ops.Sets), "op", "set")
		g("plibmc_shard_ops_total", float64(m.Ops.Deletes), "op", "delete")
		g("plibmc_shard_ops_total", float64(m.Ops.Incrs), "op", "incr")
		g("plibmc_shard_ops_total", float64(m.Ops.Decrs), "op", "decr")
		g("plibmc_shard_ops_total", float64(m.Ops.Touches), "op", "touch")
		g("plibmc_shard_state", float64(cm.States[i]))
		g("plibmc_shard_curr_items", float64(m.Ops.CurrItems))
		g("plibmc_shard_bytes", float64(m.Ops.Bytes))
		g("plibmc_shard_repairs_total", float64(m.Recovery.Repairs))
		g("plibmc_shard_checkpoint_last_generation", float64(m.Checkpoint.LastGeneration))
		g("plibmc_shard_checkpoint_failures_total", float64(m.Checkpoint.Failures))
	}
	out = append(out,
		metrics.Sample{Name: "plibmc_migration_state", Value: float64(cm.Migration.State)},
		metrics.Sample{Name: "plibmc_migration_resizes_total", Value: float64(cm.Migration.Resizes)},
		metrics.Sample{Name: "plibmc_migration_segments_moved_total", Value: float64(cm.Migration.SegmentsMoved)},
		metrics.Sample{Name: "plibmc_migration_keys_moved_total", Value: float64(cm.Migration.KeysMoved)},
		metrics.Sample{Name: "plibmc_migration_retries_total", Value: float64(cm.Migration.Retries)},
		metrics.Sample{Name: "plibmc_shard_rebuilds_total", Value: float64(cm.Supervisor.Rebuilds)},
		metrics.Sample{Name: "plibmc_shard_rebuilt_empty_total", Value: float64(cm.Supervisor.RebuiltEmpty)},
		metrics.Sample{Name: "plibmc_shard_rebuild_failures_total", Value: float64(cm.Supervisor.RebuildFailures)},
		metrics.Sample{Name: "plibmc_shard_rebuilt_at_open", Value: float64(cm.Supervisor.RebuiltAtOpen)},
		metrics.Sample{Name: "plibmc_breaker_trips_total", Value: float64(cm.Supervisor.BreakerTrips)},
		metrics.Sample{Name: "plibmc_breaker_fast_fails_total", Value: float64(cm.Supervisor.BreakerFastFails)},
		metrics.Sample{Name: "plibmc_shard_rebuild_last_seconds", Value: cm.Supervisor.LastRebuildDuration.Seconds()},
	)
	return out
}

// Vars renders a flat expvar-style map: aggregate counters plus per-shard
// state.
func (cm *ClusterMetrics) Vars() map[string]any {
	var ops core.Stats
	for i := range cm.Shards {
		addStats(&ops, cm.Shards[i].Ops)
	}
	v := map[string]any{
		"shards":                   len(cm.Shards),
		"cmd_get":                  ops.Gets,
		"cmd_set":                  ops.Sets,
		"cmd_delete":               ops.Deletes,
		"curr_items":               ops.CurrItems,
		"bytes":                    ops.Bytes,
		"migration_state":          cm.Migration.State,
		"migration_resizes":        cm.Migration.Resizes,
		"migration_segments_moved": cm.Migration.SegmentsMoved,
		"migration_keys_moved":     cm.Migration.KeysMoved,
		"migration_retries":        cm.Migration.Retries,
		"shard_rebuilds":           cm.Supervisor.Rebuilds,
		"shard_rebuilt_empty":      cm.Supervisor.RebuiltEmpty,
		"shard_rebuild_failures":   cm.Supervisor.RebuildFailures,
		"shard_rebuilt_at_open":    cm.Supervisor.RebuiltAtOpen,
		"breaker_trips":            cm.Supervisor.BreakerTrips,
		"breaker_fast_fails":       cm.Supervisor.BreakerFastFails,
	}
	for i, st := range cm.States {
		v[fmt.Sprintf("shard_%d_state", i)] = int(st)
	}
	return v
}

// MetricsHandler serves /metrics and /debug/vars for the whole cluster.
func (c *Cluster) MetricsHandler() http.Handler {
	return metrics.Handler(func() ([]metrics.Sample, map[string]any) {
		cm := c.Metrics()
		return cm.Samples(), cm.Vars()
	})
}
