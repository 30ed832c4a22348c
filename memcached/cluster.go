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
// A key lives on exactly one shard: the one the authoritative ring names.
// Every read and write of a key goes to that shard, so cluster operations
// are linearizable per key with no second copy to keep coherent.
//
// The ring, the shard set and a live resize's migration live together in
// one immutable topology snapshot behind an atomic pointer, swapped only
// under routeMu's write lock: a live resize (migrate.go) installs a wider
// shard set and its migration up front, streams the moved hash segments
// between shards in the background, and swaps in the new ring at one
// cutover. Routing is therefore one atomic load and the ring's lookup;
// during a migration a write also dirty-marks its key.

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
// shards attachable until Shutdown), each shard's store beside its
// lifecycle record, and the live resize's migration (nil in steady state).
// Swapped wholesale under routeMu (publish); a rebuild replaces a store
// and keeps its record, a resize appends fresh ones.
type topology struct {
	ring   *ring.Ring
	shards []*Bookkeeper
	health []*shardHealth
	mig    *migration
}

// Cluster is the multi-store handle.
type Cluster struct {
	cfg  ClusterConfig
	topo atomic.Pointer[topology]

	lastMig atomic.Pointer[migration] // the latest resize, for status/wait
	routeMu routeLock
	// resizeMu serializes everything that installs a store as a shard —
	// Resize setup, rebuilds — with the loop starts whose cadence install
	// applies.
	resizeMu sync.Mutex
	// maintEvery and ckptEvery are the cadences install starts a shard's
	// loops at (0 = not started). Guarded by resizeMu.
	maintEvery, ckptEvery time.Duration

	// Migration accounting (cumulative across resizes).
	resizes    atomic.Uint64 // Resize calls that started a migration
	segsMoved  atomic.Uint64 // plibmc_migration_segments_moved_total: + plan size at each cutover
	keysMoved  atomic.Uint64 // entries installed on their destination
	migRetries atomic.Uint64 // migrator attempts restarted after a crash

	sup loop // the supervisor (supervisor.go)

	// now is the breakers' clock (mono.Now; tests step it). Only a
	// refused call reads it.
	now func() int64
}

func (c *Cluster) top() *topology { return c.topo.Load() }

// clone copies t, so a change to the copy's shard set publishes as one
// pointer swap.
func (t *topology) clone() *topology {
	return &topology{
		ring:   t.ring,
		shards: append([]*Bookkeeper(nil), t.shards...),
		health: append([]*shardHealth(nil), t.health...),
		mig:    t.mig,
	}
}

// publish swaps in an edited copy of the topology under routeMu's write
// lock, so no operation straddles the change.
func (c *Cluster) publish(edit func(*topology)) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	next := c.top().clone()
	edit(next)
	c.topo.Store(next)
}

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

// install makes b shard i — the one way a store, created, reopened,
// grown or rebuilt, becomes a shard: it enters the shard's CAS space,
// takes the (optional) test clock, and starts maintenance and, when it has
// a backing file, checkpointing at the cluster's recorded cadence. The
// caller holds resizeMu or has not yet published the cluster.
func (c *Cluster) install(b *Bookkeeper, i int) {
	b.Store().SeedCAS(shardCASBase(i)) // no-op past the base; see SeedCAS
	if c.cfg.Clock != nil {
		b.Store().SetClock(c.cfg.Clock)
	}
	if c.maintEvery > 0 {
		b.StartMaintenance(c.maintEvery)
	}
	if c.ckptEvery > 0 && b.cfg.Path != "" {
		b.StartCheckpointing(c.ckptEvery)
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
	c := &Cluster{cfg: cfg, now: mono.Now}
	top := &topology{ring: r}
	for i := 0; i < cfg.Shards; i++ {
		b, err := CreateStore(cfg.shardConfig(i))
		if err != nil {
			for _, prev := range top.shards {
				prev.Shutdown() //nolint:errcheck
			}
			return nil, fmt.Errorf("memcached: shard %d: %w", i, err)
		}
		c.install(b, i)
		top.shards, top.health = append(top.shards, b), append(top.health, &shardHealth{})
	}
	c.topo.Store(top)
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
	c := &Cluster{cfg: cfg, now: mono.Now}
	top := &topology{ring: r}
	var openErrs []string
	for i := 0; i < cfg.Shards; i++ {
		h := &shardHealth{}
		b, err := OpenStore(cfg.shardConfig(i))
		if err != nil {
			openErrs = append(openErrs, fmt.Sprintf("shard %d: %v", i, err))
			b, err = createShardPastCandidates(cfg.shardConfig(i))
			if err != nil {
				for _, prev := range top.shards {
					prev.Shutdown() //nolint:errcheck
				}
				return nil, fmt.Errorf("memcached: shard %d: %w", i, err)
			}
			h.rebuiltAtOpen.Store(true)
			h.rebuiltEmpty.Add(1)
		}
		c.install(b, i)
		top.shards, top.health = append(top.shards, b), append(top.health, h)
	}
	if len(openErrs) == cfg.Shards {
		for _, prev := range top.shards {
			prev.Shutdown() //nolint:errcheck
		}
		return nil, fmt.Errorf("memcached: no shard opened from %s: %s",
			cfg.Dir, strings.Join(openErrs, "; "))
	}
	c.topo.Store(top)
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

// ShardFor returns the shard owning key on the authoritative ring.
func (c *Cluster) ShardFor(key []byte) int { return c.top().ring.Shard(key) }

// StartMaintenance starts every shard's maintenance loop. The cadence is
// recorded so a shard installed later — grown or rebuilt — starts it too.
func (c *Cluster) StartMaintenance(interval time.Duration) {
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	c.maintEvery = interval
	for _, b := range c.top().shards {
		b.StartMaintenance(interval)
	}
}

// StartCheckpointing starts every shard's checkpoint loop. The cadence is
// recorded so a shard installed later — grown or rebuilt — starts it too.
func (c *Cluster) StartCheckpointing(interval time.Duration) {
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	c.ckptEvery = interval
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
	if m := c.lastMig.Load(); m != nil {
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
// the supervisor has replaced the shard's Bookkeeper, instead of carrying
// calls into the dropped (poisoned) store forever.
func (cc *ClusterClient) proc(shard int) (*ClientProcess, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for len(cc.procs) <= shard {
		cc.procs = append(cc.procs, nil)
	}
	b := cc.c.top().shards[shard]
	if cp := cc.procs[shard]; cp != nil && cp.b == b {
		return cp, nil
	}
	cp, err := b.NewClientProcess(cc.uid)
	if err != nil {
		return nil, fmt.Errorf("memcached: shard %d attach: %w", shard, err)
	}
	cc.procs[shard] = cp
	return cp, nil
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
		if cp != nil {
			cp.Kill()
		}
	}
}

// NewSession opens one routed session: a per-shard Session bundle behind
// the Session-shaped API. Like Session, a ClusterSession models a thread
// and is not safe for concurrent use.
func (cc *ClusterClient) NewSession() (*ClusterSession, error) {
	cs := &ClusterSession{c: cc.c, cc: cc, stripe: cc.c.routeMu.stripe()}
	cs.x = cs
	t := cc.c.top()
	for i := range t.shards {
		if _, err := cs.sess(t, i); err != nil {
			cs.Close()
			return nil, err
		}
	}
	return cs, nil
}

// ClusterSession routes the Session API across shards: single-key ops go
// to the owning shard's fast lane; MGet/ExecBatch split into per-shard
// sub-batches so each shard still sees one gate crossing for its whole
// share of the batch. Each call routes by one topology, loaded under its
// routeMu stripe; during a live resize a write then dirty-marks its key.
type ClusterSession struct {
	verbs
	c        *Cluster
	cc       *ClusterClient
	sessions []*Session
	part     batchPartition
	stripe   int // the routeMu stripe this session read-locks
}

// Session exposes the underlying per-shard session (tests, ablation).
func (s *ClusterSession) Session(shard int) *Session { return s.sessions[shard] }

// sess returns the per-shard session of topology t, attaching on demand
// to shards that joined after this session was opened, and opening a
// fresh one when the supervisor has replaced the shard's store. The old
// session belongs to a poisoned store — dropped, not closed (teardown
// would touch the dead heap's allocator). ClusterSession models a thread,
// so the slice needs no lock; the shared process table locks internally.
func (s *ClusterSession) sess(t *topology, shard int) (*Session, error) {
	for len(s.sessions) <= shard {
		s.sessions = append(s.sessions, nil)
	}
	b := t.shards[shard]
	if ss := s.sessions[shard]; ss != nil && ss.b == b {
		return ss, nil
	}
	cp, err := s.cc.proc(shard)
	if err != nil {
		return nil, err
	}
	ss, err := cp.NewSession()
	if err != nil {
		return nil, fmt.Errorf("memcached: shard %d session: %w", shard, err)
	}
	s.sessions[shard] = ss
	return ss, nil
}

// Close closes every per-shard session, except one on a store the
// supervisor has since replaced: like sess, it drops that one, because
// teardown would touch the dead heap's allocator.
func (s *ClusterSession) Close() {
	shards := s.c.top().shards
	for i, ss := range s.sessions {
		if ss != nil && i < len(shards) && ss.b == shards[i] {
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

// do is the cluster's single-op path: load the topology, run the op on the
// shard its ring names, and during a migration dirty-mark a write after its
// crossing, so the cutover's recopy carries it to the destination. The mark
// comes even on error: a failed op may still have written, and one extra
// recopy is cheaper than reasoning about which error paths mutate.
func (s *ClusterSession) do(op *BatchOp, r *BatchResult) {
	mu := &s.c.routeMu.stripes[s.stripe]
	mu.RLock()
	defer mu.RUnlock()
	t := s.c.top()
	s.doShard(t, t.ring.Shard(op.Key), op, r)
	if t.mig != nil && !readOnly(op.Code) {
		t.mig.markWritten(op.Key)
	}
}

func (s *ClusterSession) doShard(t *topology, shard int, op *BatchOp, r *BatchResult) {
	if err := s.c.shardAllow(t, shard); err != nil {
		*r = BatchResult{Err: err}
		return
	}
	// Attach failures feed the breaker too (a probe admitted by allow
	// must always be reported, or the probe slot leaks). The op's own
	// outcome — a miss, a CAS mismatch — stays in r.Err and reaches the
	// breaker as nil: it is not the shard's failure, and classifying it
	// would cost a miss more than the report itself.
	ss, err := s.sess(t, shard)
	if err != nil {
		*r = BatchResult{Err: err}
	} else {
		err = ss.cross(op, r)
	}
	s.c.shardReport(t, shard, err)
}

// FlushAll removes every entry on every shard (including shards still
// receiving a migration), each behind its breaker like any operation. It
// stops at the first shard that refuses or fails.
func (s *ClusterSession) FlushAll() error {
	mu := &s.c.routeMu.stripes[s.stripe]
	mu.RLock()
	defer mu.RUnlock()
	t := s.c.top()
	for i := range t.shards {
		if err := s.c.shardAllow(t, i); err != nil {
			return err
		}
		ss, err := s.sess(t, i)
		if err == nil {
			err = ss.FlushAll()
		}
		s.c.shardReport(t, i, err)
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates the store counters across shards.
func (s *ClusterSession) Stats() (core.Stats, error) {
	var agg core.Stats
	t := s.c.top()
	for i := range t.shards {
		ss, err := s.sess(t, i)
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

func (s *ClusterSession) batchShard(t *topology, shard int, ops []BatchOp, res []BatchResult, vbuf []byte) ([]byte, error) {
	if err := s.c.shardAllow(t, shard); err != nil {
		return nil, err
	}
	ss, err := s.sess(t, shard)
	if err == nil {
		vbuf, err = ss.batch(ops, res, vbuf)
	}
	s.c.shardReport(t, shard, err)
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
// migration the batch's writes are dirty-marked once every crossing has
// retired, as a single op's are after its crossing.
func (s *ClusterSession) batch(ops []BatchOp, out []BatchResult, vbuf []byte) ([]byte, error) {
	p := &s.part
	mu := &s.c.routeMu.stripes[s.stripe]
	mu.RLock()
	defer mu.RUnlock()
	t := s.c.top()
	n := len(t.shards)
	for len(p.ops) < n { // a live resize can widen the cluster
		p.ops, p.idx = append(p.ops, nil), append(p.idx, nil)
	}
	res := lend(&p.res, len(ops)) // no share is longer than the batch
	defer func() {
		// The partition outlives the batch: the caller's keys and values
		// must not ride along in it.
		for sh := range p.ops {
			clear(p.ops[sh])
			p.ops[sh], p.idx[sh] = p.ops[sh][:0], p.idx[sh][:0]
		}
		clear(res)
	}()
	for i := range ops {
		sh := t.ring.Shard(ops[i].Key)
		p.ops[sh] = append(p.ops[sh], ops[i])
		p.idx[sh] = append(p.idx[sh], i)
	}
	for sh := 0; sh < n; sh++ {
		share := p.ops[sh]
		if len(share) == 0 {
			continue
		}
		grown, err := s.batchShard(t, sh, share, res[:len(share)], vbuf)
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
	if t.mig != nil {
		for i := range ops {
			if !readOnly(ops[i].Code) {
				t.mig.markWritten(ops[i].Key)
			}
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
	top := c.top()
	if top.health[i].br.word.Load()&brStateMask == brRebuilding {
		return ShardRebuilding
	}
	lib := top.shards[i].Library()
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
	SegmentsMoved uint64 // cumulative; grows by the plan size at each resize's one cutover
	KeysMoved     uint64 // entries installed on a destination, cumulative
	Retries       uint64 // migrator attempts restarted after a crash
	SegmentsTotal int    // current migration's plan size
	SegmentsDone  int    // current migration's segments copied so far; all move at its cutover
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
	if m := c.lastMig.Load(); m != nil && m.active() {
		cm.Migration.State = 1
		cm.Migration.SegmentsTotal = len(m.segs)
		cm.Migration.SegmentsDone = m.segmentsCopied()
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
