package memcached

// Shard lifecycle supervisor.
//
// PRs 2–9 made everything short of a failed repair survivable online:
// crashes quarantine → repair → resume, shards fail independently, the
// ring reshapes live. A shard whose repair itself fails was still a
// terminal state — hodor poisons the library, `Cluster.State` reports
// ShardPoisoned forever, and clients keep paying full timeouts to a
// corpse. This file closes that gap with the same discipline the
// ring-sharing literature applies to dead peers (reap and rebuild):
//
//   - A per-cluster supervisor (SuperviseOnce for one pass,
//     StartSupervisor for the background loop) only rebuilds: it walks
//     a poisoned shard through a recovery ladder: detach the dead store
//     → reopen from the best checkpoint candidate (the existing
//     ImageCandidates fallback chain) → if no image verifies, rebuild
//     empty — then re-attach the replacement under the routing barrier
//     so survivor shards serve uninterrupted throughout.
//
//   - The rebuilt shard resumes in the dead store's CAS space: the old
//     heap's CAS high-water mark survives in memory even after poison
//     (CASCounter is a plain atomic load), so the replacement seeds past
//     it plus a generation gap — a CAS token minted before the crash can
//     never be re-minted after it (no ABA on retried CAS).
//
//   - A per-shard circuit breaker, one atomic word (closed → open on
//     poison or a run of consecutive crossing failures → one probe after
//     the cooldown, never into a poisoned store), makes the down window
//     cheap: callers get a typed, retryable error in nanoseconds instead
//     of a parked crossing, MGet/ExecBatch keep positional per-shard
//     isolation, and the proxy reports distinct
//     "SERVER_ERROR shard N recovering|rebuilding" frames. The breaker
//     keeps its own time: a refused caller reads the cluster clock and
//     takes the probe when it is due, so it needs no supervisor.
//
// The old Bookkeeper is dropped, not Shutdown: Shutdown on a poisoned
// store writes its (suspect) heap to disk, and a newer-generation
// corrupt image would win the candidate race on the next open. Dropping
// it keeps the last good checkpoint authoritative. Stragglers still
// holding sessions on the old store get ErrPoisoned from its gate, and
// the cluster handles (ClusterClient/ClusterSession) re-attach by
// Bookkeeper identity on their next use.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"plibmc/internal/hodor"
	"plibmc/internal/shm"
)

// ErrShardDown is the class of every breaker-generated fast-fail: the
// key's shard is temporarily unavailable (recovering past its grace, or
// poisoned and being rebuilt) and the call was refused without paying a
// gate crossing. Retryable — the supervisor is bringing the shard back.
var ErrShardDown = errors.New("memcached: shard temporarily unavailable")

// shardDownError is the typed fast-fail. It matches ErrShardDown (the
// retryable class), and unwraps to the underlying hodor condition
// (ErrPoisoned or ErrRecoveryTimeout) so callers that already classify
// gate errors keep working unchanged.
type shardDownError struct {
	shard int
	state ShardState
	cause error
}

func (e *shardDownError) Error() string {
	return fmt.Sprintf("memcached: %s: %v", e.frame(), e.cause)
}

// frame is the operator-facing condition, also used verbatim in the
// proxy's "SERVER_ERROR <frame>" responses.
func (e *shardDownError) frame() string {
	if e.state == ShardRecovering {
		return fmt.Sprintf("shard %d recovering", e.shard)
	}
	return fmt.Sprintf("shard %d rebuilding", e.shard)
}

func (e *shardDownError) Is(target error) bool { return target == ErrShardDown }
func (e *shardDownError) Unwrap() error        { return e.cause }

// shardDown builds the typed fast-fail for shard i in the given state.
func shardDown(shard int, state ShardState) error {
	cause := hodor.ErrRecoveryTimeout
	if state == ShardPoisoned || state == ShardRebuilding {
		cause = hodor.ErrPoisoned
	}
	return &shardDownError{shard: shard, state: state, cause: cause}
}

// ShardDownFrame extracts the operator-facing condition ("shard N
// recovering|rebuilding") from a breaker fast-fail, for protocol frames
// and logs. ok is false for any other error.
func ShardDownFrame(err error) (frame string, ok bool) {
	var sde *shardDownError
	if errors.As(err, &sde) {
		return sde.frame(), true
	}
	return "", false
}

// crossingFailure reports whether a crossing's error indicates the shard
// itself is in trouble (as opposed to a client-side condition such as a
// killed process or backpressure): poison, a crossing that crashed, or a
// recovery window the caller waited out. These feed the breaker; everything
// else — including nil, which is how every per-key outcome arrives —
// resets it.
func crossingFailure(err error) bool {
	if err == nil {
		return false
	}
	var crash *hodor.CrashError
	return errors.Is(err, hodor.ErrPoisoned) ||
		errors.Is(err, hodor.ErrRecoveryTimeout) ||
		errors.As(err, &crash)
}

// The breaker word. One atomic int64 per shard is the whole breaker:
//
//	stamp<<3 | poisoned<<2 | state
//
// state is closed, open, probe or rebuilding, and closed is stored as 0,
// so the healthy path is one load compared with zero. poisoned records
// that the trip was a poison verdict, which picks the fast-fail's frame
// and cause. stamp is the cluster clock (Cluster.now) at the last
// transition: the trip, or the probe's admission. Every transition is one
// CAS of the whole word, and nothing ticks it: the timed ones run where a
// call is refused (refuse), so only a refused caller reads the clock.
const (
	brClosed int64 = iota
	brOpen
	brProbe
	brRebuilding       // rebuildShard owns the word; calls fail fast
	brStateMask  int64 = 3
	brPoisoned   int64 = 4
	brStampShift       = 3
)

// shardBreaker is one shard's circuit breaker.
type shardBreaker struct {
	word  atomic.Int64
	fails atomic.Int32 // consecutive crossing failures while closed

	trips     atomic.Uint64
	fastFails atomic.Uint64
	probes    atomic.Uint64
}

// wordState is the lifecycle condition a refusal reports.
func wordState(w int64) ShardState {
	switch {
	case w&brStateMask == brRebuilding:
		return ShardRebuilding
	case w&brPoisoned != 0:
		return ShardPoisoned
	}
	return ShardRecovering
}

// shardHealth is the supervisor's per-shard lifecycle record. It rides in
// the topology beside the shard's store: a rebuild keeps it, a resize
// appends a fresh one.
type shardHealth struct {
	br shardBreaker

	rebuilds        atomic.Uint64 // completed rebuilds
	rebuiltEmpty    atomic.Uint64 // rebuilds that found no loadable image
	rebuildFailures atomic.Uint64 // rebuild attempts that errored (retried next tick)
	rebuiltAtOpen   atomic.Bool   // OpenCluster degraded this shard to empty
	lastRebuildNS   atomic.Int64  // wall time of the last completed rebuild
	lastRebuildAt   atomic.Int64  // unix nanos when it completed
}

// shardHealth returns shard i's lifecycle record.
func (c *Cluster) shardHealth(i int) *shardHealth { return c.top().health[i] }

func (c *Cluster) breakerThreshold() int {
	if c.cfg.BreakerThreshold > 0 {
		return c.cfg.BreakerThreshold
	}
	return 3
}

func (c *Cluster) breakerCooldown() time.Duration {
	if c.cfg.BreakerCooldown > 0 {
		return c.cfg.BreakerCooldown
	}
	return time.Second
}

// shardAllow is the data path's pre-crossing check against shard i of the
// operation's topology t: on the healthy path one load of the breaker
// word, which BenchmarkRouteParts prices together with shardReport(nil).
// Callers that get nil must hand the crossing's error — not the op's own
// outcome — to shardReport.
func (c *Cluster) shardAllow(t *topology, i int) error {
	br := &t.health[i].br
	if w := br.word.Load(); w != brClosed {
		return c.refuse(t, i, br, w)
	}
	return nil
}

// refuse is shardAllow off the healthy path. When the probe is due it
// hands it to this caller; everyone else fails fast.
func (c *Cluster) refuse(t *topology, i int, br *shardBreaker, w int64) error {
	if now := c.now(); c.probeDue(t.shards[i], w, now) &&
		br.word.CompareAndSwap(w, now<<brStampShift|w&brPoisoned|brProbe) {
		br.probes.Add(1)
		return nil
	}
	br.fastFails.Add(1)
	return shardDown(i, wordState(w))
}

// probeDue reports whether word w hands the probe to a caller refused at
// now: an open breaker past its cooldown, or a probe that has not reported
// for as long (its caller died or is parked mid-crossing). Never while the
// shard's store b is poisoned: only a rebuild closes that breaker.
func (c *Cluster) probeDue(b *Bookkeeper, w, now int64) bool {
	st := w & brStateMask
	return (st == brOpen || st == brProbe) &&
		now-w>>brStampShift >= int64(c.breakerCooldown()) &&
		!b.Library().Poisoned()
}

// shardReport feeds one crossing's verdict into shard i's breaker: nil for
// a crossing that completed, whatever its ops returned. A healthy crossing
// clears the failure run and closes a probing breaker. A crossing failure
// reopens a probing breaker, restarting the cooldown; a closed one trips on
// poison or on the BreakerThreshold-th consecutive failure. A rebuild owns
// the word, so reports against it are dropped. It returns err, named as
// the breaker's fast-fails are (errors.Is still reaches err) if this
// report tripped the breaker, so the first op into a failed shard names it.
func (c *Cluster) shardReport(t *topology, i int, err error) error {
	br := &t.health[i].br
	if !crossingFailure(err) {
		if br.fails.Load() != 0 {
			br.fails.Store(0)
		}
		if w := br.word.Load(); w&brStateMask == brProbe {
			br.word.CompareAndSwap(w, brClosed)
		}
		return err
	}
	poisoned := errors.Is(err, hodor.ErrPoisoned)
	w := br.word.Load()
	switch w & brStateMask {
	case brClosed:
		if n := br.fails.Add(1); !poisoned && int(n) < c.breakerThreshold() {
			return err
		}
	case brOpen:
		if poisoned { // a late poison verdict: the frame turns "rebuilding"
			br.word.CompareAndSwap(w, w|brPoisoned)
		}
		return err
	case brRebuilding:
		return err
	}
	next := c.now()<<brStampShift | brOpen
	if poisoned {
		next |= brPoisoned
	}
	if br.word.CompareAndSwap(w, next) {
		br.trips.Add(1)
		return &shardDownError{shard: i, state: wordState(next), cause: err}
	}
	return err
}

// SuperviseOnce runs one supervisor pass: every poisoned shard enters the
// rebuild ladder. The breaker needs no pass; it keeps its own time.
// Production runs it from StartSupervisor.
func (c *Cluster) SuperviseOnce() {
	for i, b := range c.top().shards {
		if b.Library().Poisoned() {
			if err := c.rebuildShard(i); err != nil {
				c.shardHealth(i).rebuildFailures.Add(1) // retried next pass
			}
		}
	}
}

// StartSupervisor starts the background lifecycle loop: one SuperviseOnce
// pass per interval on the wall clock. Idempotent while running.
func (c *Cluster) StartSupervisor(interval time.Duration) { c.sup.start(interval, c.SuperviseOnce) }

// StopSupervisor stops the background lifecycle loop and waits for the
// in-flight pass (if any) to finish.
func (c *Cluster) StopSupervisor() { c.sup.stop() }

// casRebuildGap is the generation bump a rebuilt shard adds past the
// dead store's CAS high-water mark. The mark is read with a plain atomic
// load while stragglers (calls still unwinding in the dead store) could in
// principle still be incrementing, so the gap swallows any in-flight
// mints; the result is that no CAS token observed before the crash can
// ever be re-minted by the replacement.
const casRebuildGap = 1 << 16

// rebuildShard runs the recovery ladder for one poisoned shard:
//
//	detach dead store → reopen from best checkpoint candidate →
//	(no verifying image) rebuild empty → re-attach under routeMu
//
// Survivor shards route around it the whole time (their topology entries
// are untouched until the single pointer swap). The rebuild owns the
// breaker word while it runs, and leaves it closed on success; on failure
// it leaves it open on the poisoned store, and the next supervisor pass
// retries.
func (c *Cluster) rebuildShard(i int) error {
	// Exclude a concurrent resize: both reshape the topology. A live
	// migration keeps the shard set in flux — park until it finishes
	// (the poisoned shard keeps failing fast behind its open breaker).
	// Checked under resizeMu, which Resize holds while it starts one.
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	if m := c.lastMig.Load(); m != nil && m.active() {
		return fmt.Errorf("memcached: shard %d rebuild deferred: migration in flight", i)
	}

	top := c.top()
	old := top.shards[i]
	// Re-verify poison now that the lock is held: a caller whose
	// Poisoned() precheck passed but then queued behind a completed
	// rebuild (manual RebuildShard racing the supervisor, or two
	// supervisor passes) must not re-run the ladder on the healthy
	// replacement — detaching it would silently discard every write it
	// accepted since.
	if lib := old.Library(); lib == nil || !lib.Poisoned() {
		return nil
	}
	h := top.health[i]
	h.br.word.Store(c.now()<<brStampShift | brPoisoned | brRebuilding)
	start := time.Now()
	// The dead store's CAS high-water mark survives poison in memory.
	preCAS := old.Store().CASCounter()
	old.StopMaintenance()
	old.StopCheckpointing()

	// Ladder rung 1: reopen from the best verifying image. OpenStore
	// walks the ImageCandidates chain (base, .a, .b — newest verifying
	// generation first) exactly as a process restart would.
	var nb *Bookkeeper
	fromImage := false
	sc := c.cfg.shardConfig(i)
	if sc.Path != "" {
		if reopened, err := OpenStore(sc); err == nil {
			nb = reopened
			fromImage = true
		}
	}
	// Ladder rung 2: no loadable image (or an in-memory shard) — rebuild
	// empty. The shard loses its data but the cluster keeps its shape.
	if nb == nil {
		created, err := createShardPastCandidates(sc)
		if err != nil {
			h.br.word.Store(c.now()<<brStampShift | brPoisoned | brOpen)
			return fmt.Errorf("memcached: shard %d rebuild: %w", i, err)
		}
		nb = created
	}
	// Resume in the dead store's CAS space, bumped a generation: stale
	// tokens from before the crash can never ABA against new mints.
	nb.Store().SeedCAS(max(preCAS, shardCASBase(i)) + casRebuildGap)
	c.install(nb, i)

	// Re-attach under the routing barrier: survivors never see a torn
	// view. The shard keeps its lifecycle record.
	c.publish(func(t *topology) { t.shards[i] = nb })
	old.releaseClock()

	// If the shard came back empty, persist that fact immediately: the
	// seeded generation makes this image outrank the stale candidates,
	// so a process restart agrees with the live cluster. Best-effort —
	// a disk fault here is counted by the checkpoint accounting.
	if !fromImage && sc.Path != "" {
		nb.Checkpoint() //nolint:errcheck // degraded disk must not fail the rebuild
	}

	h.br.fails.Store(0)
	h.br.word.Store(brClosed)
	h.rebuilds.Add(1)
	if !fromImage {
		h.rebuiltEmpty.Add(1)
	}
	h.lastRebuildNS.Store(int64(time.Since(start)))
	h.lastRebuildAt.Store(time.Now().UnixNano())
	return nil
}

// createShardPastCandidates creates an empty shard store whose
// checkpoint generation is seeded past every on-disk image candidate, so
// its first checkpoint outranks the stale (unloadable) images instead of
// losing the best-candidate race to them on the next open. Used by the
// rebuild ladder's empty rung and by OpenCluster's degraded mode.
func createShardPastCandidates(sc Config) (*Bookkeeper, error) {
	b, err := CreateStore(sc)
	if err != nil {
		return nil, err
	}
	if sc.Path != "" {
		var gen uint64
		for _, cand := range shm.ImageCandidates(sc.Path) {
			if cand.Generation > gen {
				gen = cand.Generation
			}
		}
		b.repairMu.Lock()
		b.ckptGen = gen
		b.repairMu.Unlock()
	}
	return b, nil
}

// RebuildShard manually runs the recovery ladder for shard i (the
// /admin escape hatch; the supervisor does this automatically). It
// refuses to rebuild a shard that is not poisoned.
func (c *Cluster) RebuildShard(i int) error {
	if i < 0 || i >= len(c.top().shards) {
		return fmt.Errorf("memcached: no shard %d", i)
	}
	if !c.top().shards[i].Library().Poisoned() {
		return fmt.Errorf("memcached: shard %d is not poisoned", i)
	}
	return c.rebuildShard(i)
}

// ShardStatus is one shard's lifecycle snapshot, for /admin and stats.
type ShardStatus struct {
	Shard         int        `json:"shard"`
	State         ShardState `json:"state"`
	Breaker       string     `json:"breaker"`
	Rebuilds      uint64     `json:"rebuilds"`
	RebuiltEmpty  uint64     `json:"rebuilt_empty"`
	RebuiltAtOpen bool       `json:"rebuilt_at_open"`
	BreakerTrips  uint64     `json:"breaker_trips"`
	FastFails     uint64     `json:"breaker_fast_fails"`
	// CheckpointLastError is the message of the shard's most recent
	// failed checkpoint ("" if none has failed).
	CheckpointLastError string `json:"checkpoint_last_error,omitempty"`
}

// breakerName is what /admin/shards calls breaker word w: an open breaker
// whose next refused caller would take the probe reads "half-open", and a
// rebuild's word reads "open".
func (c *Cluster) breakerName(b *Bookkeeper, w, now int64) string {
	switch {
	case w == brClosed:
		return "closed"
	case w&brStateMask == brProbe:
		return "probe"
	case w&brStateMask == brOpen && c.probeDue(b, w, now):
		return "half-open"
	}
	return "open"
}

// ShardStatuses snapshots every shard's lifecycle state.
func (c *Cluster) ShardStatuses() []ShardStatus { return c.shardStatuses(c.top()) }

func (c *Cluster) shardStatuses(t *topology) []ShardStatus {
	out := make([]ShardStatus, len(t.health))
	now := c.now()
	for i, h := range t.health {
		b := t.shards[i]
		b.repairReportMu.Lock()
		lastErr := b.ckptLastErr
		b.repairReportMu.Unlock()
		out[i] = ShardStatus{
			Shard:         i,
			State:         t.state(i),
			Breaker:       c.breakerName(b, h.br.word.Load(), now),
			Rebuilds:      h.rebuilds.Load(),
			RebuiltEmpty:  h.rebuiltEmpty.Load(),
			RebuiltAtOpen: h.rebuiltAtOpen.Load(),
			BreakerTrips:  h.br.trips.Load(),
			FastFails:     h.br.fastFails.Load(),

			CheckpointLastError: lastErr,
		}
	}
	return out
}

// SupervisorMetrics is the cluster-wide lifecycle counter snapshot.
type SupervisorMetrics struct {
	Rebuilds            uint64        // completed shard rebuilds
	RebuiltEmpty        uint64        // rebuilds that found no loadable image
	RebuildFailures     uint64        // attempts that errored and were retried
	RebuiltAtOpen       uint64        // shards OpenCluster degraded to empty
	BreakerTrips        uint64        // breaker closed→open transitions
	BreakerFastFails    uint64        // calls refused without a crossing
	LastRebuildDuration time.Duration // wall time of the most recent rebuild
	LastRebuildAt       time.Time     // completion time of the most recent rebuild
}

func (c *Cluster) supervisorMetrics() SupervisorMetrics {
	var m SupervisorMetrics
	var lastAt, lastNS int64
	for _, h := range c.top().health {
		m.Rebuilds += h.rebuilds.Load()
		m.RebuiltEmpty += h.rebuiltEmpty.Load()
		m.RebuildFailures += h.rebuildFailures.Load()
		if h.rebuiltAtOpen.Load() {
			m.RebuiltAtOpen++
		}
		m.BreakerTrips += h.br.trips.Load()
		m.BreakerFastFails += h.br.fastFails.Load()
		if at := h.lastRebuildAt.Load(); at > lastAt {
			lastAt, lastNS = at, h.lastRebuildNS.Load()
		}
	}
	if lastAt > 0 {
		m.LastRebuildAt = time.Unix(0, lastAt)
		m.LastRebuildDuration = time.Duration(lastNS)
	}
	return m
}
