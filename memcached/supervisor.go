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
//   - A per-cluster supervisor (SuperviseOnce under an injectable clock,
//     StartSupervisor for the background loop) watches shard health and
//     escalates a poisoned shard through a recovery ladder: detach the
//     dead store → reopen from the best checkpoint candidate (the
//     existing ImageCandidates fallback chain) → if no image verifies,
//     rebuild empty — then re-attach the replacement under the routing
//     barrier so survivor shards serve uninterrupted throughout.
//
//   - The rebuilt shard resumes in the dead store's CAS space: the old
//     heap's CAS high-water mark survives in memory even after poison
//     (CASCounter is a plain atomic load), so the replacement seeds past
//     it plus a generation gap — a CAS token minted before the crash can
//     never be re-minted after it (no ABA on retried CAS).
//
//   - A per-shard circuit breaker (closed → open on poison or a run of
//     consecutive crossing failures → half-open probe) makes the down
//     window cheap: callers get a typed, retryable error in nanoseconds
//     instead of a parked crossing, MGet/ExecBatch keep positional
//     per-shard isolation, and the proxy reports distinct
//     "SERVER_ERROR shard N recovering|rebuilding" frames.
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

// Breaker states. The data path only ever does atomic loads/CASes on
// these; all clock-based transitions (open → half-open after the
// cooldown) belong to the supervisor, so serving threads never read a
// clock on the fast path.
const (
	breakerClosed   int32 = iota // healthy: every call passes
	breakerOpen                  // tripped: every call fails fast
	breakerHalfOpen              // cooled down: the next call probes
	breakerProbe                 // one probe in flight; others fail fast
)

func breakerStateName(s int32) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	case breakerProbe:
		return "probe"
	}
	return "unknown"
}

// shardBreaker is one shard's circuit breaker.
type shardBreaker struct {
	state  atomic.Int32
	fails  atomic.Int32 // consecutive crossing failures while closed
	reason atomic.Int32 // ShardState reported while non-closed
	// openedAt is stamped by the supervisor on its first observation of
	// the open state (0 = not yet observed); the cooldown runs on the
	// supervisor's injectable clock, never the data path's.
	openedAt atomic.Int64
	// probedAt is the same discipline for the probe state: zeroed when a
	// caller takes the probe slot, stamped by the supervisor on its first
	// observation, and a probe that outlives the cooldown without ever
	// reporting (caller died mid-crossing) is reverted to open so the
	// breaker cannot wedge in probe.
	probedAt atomic.Int64

	trips     atomic.Uint64
	fastFails atomic.Uint64
	probes    atomic.Uint64
}

// allow is the data-path admission check: nil means proceed (and report
// the outcome via report); an error is the typed fast-fail. A probe
// admitted here and never reported strands the breaker until the
// supervisor times it out.
func (br *shardBreaker) allow(shard int) error {
	switch br.state.Load() {
	case breakerClosed:
		return nil
	case breakerHalfOpen:
		if br.state.CompareAndSwap(breakerHalfOpen, breakerProbe) {
			br.probedAt.Store(0) // fresh probe: the supervisor restamps
			br.probes.Add(1)
			return nil // this caller is the probe
		}
	}
	br.fastFails.Add(1)
	return shardDown(shard, ShardState(br.reason.Load()))
}

// report feeds one call's outcome back. Any non-shard-level outcome
// (success or a per-key error) closes a probing breaker and clears the
// failure run; a crossing failure counts toward the trip threshold, and
// poison trips immediately.
func (br *shardBreaker) report(err error, threshold int, state ShardState) {
	if !crossingFailure(err) {
		if br.fails.Load() != 0 {
			br.fails.Store(0)
		}
		if s := br.state.Load(); s == breakerProbe || s == breakerHalfOpen {
			br.state.Store(breakerClosed)
		}
		return
	}
	if br.state.Load() == breakerProbe {
		br.reopen(state)
		return
	}
	n := br.fails.Add(1)
	if errors.Is(err, hodor.ErrPoisoned) || int(n) >= threshold {
		br.trip(state)
	}
}

// trip opens the breaker (idempotent; counts only the transition).
func (br *shardBreaker) trip(reason ShardState) {
	br.reason.Store(int32(reason))
	if br.state.Swap(breakerOpen) != breakerOpen {
		br.trips.Add(1)
		br.openedAt.Store(0) // restart the cooldown
	}
}

// reopen is a failed probe: back to open, cooldown restarted.
func (br *shardBreaker) reopen(reason ShardState) {
	br.reason.Store(int32(reason))
	br.openedAt.Store(0)
	br.state.Store(breakerOpen)
	br.trips.Add(1)
}

// close resets the breaker to closed (rebuild finished).
func (br *shardBreaker) close() {
	br.fails.Store(0)
	br.state.Store(breakerClosed)
}

// shardHealth is the supervisor's per-shard lifecycle record. Grown
// lazily and kept outside topology so it survives rebuilds and resizes.
type shardHealth struct {
	br         shardBreaker
	rebuilding atomic.Bool // a rebuild is in flight; State reports ShardRebuilding

	rebuilds        atomic.Uint64 // completed rebuilds
	rebuiltEmpty    atomic.Uint64 // rebuilds that found no loadable image
	rebuildFailures atomic.Uint64 // rebuild attempts that errored (retried next tick)
	rebuiltAtOpen   atomic.Bool   // OpenCluster degraded this shard to empty
	lastRebuildNS   atomic.Int64  // wall time of the last completed rebuild
	lastRebuildAt   atomic.Int64  // unix nanos when it completed
}

// shardHealth returns shard i's lifecycle record, growing the registry
// if needed. The fast path is one atomic load.
func (c *Cluster) shardHealth(i int) *shardHealth {
	if hs := c.health.Load(); hs != nil && i < len(*hs) {
		return (*hs)[i]
	}
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	var cur []*shardHealth
	if hs := c.health.Load(); hs != nil {
		cur = *hs
	}
	if i < len(cur) {
		return cur[i]
	}
	grown := make([]*shardHealth, i+1)
	copy(grown, cur)
	for j := len(cur); j <= i; j++ {
		grown[j] = &shardHealth{}
	}
	c.health.Store(&grown)
	return grown[i]
}

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

// shardAllow is the data path's pre-crossing check: in the healthy case
// three atomic loads (the health registry, the rebuilding flag, the breaker
// state), which BenchmarkRouteParts prices together with shardReport(nil).
// Callers that get nil must hand the crossing's error — not the op's own
// outcome — to shardReport.
func (c *Cluster) shardAllow(i int) error {
	h := c.shardHealth(i)
	if h.rebuilding.Load() {
		h.br.fastFails.Add(1)
		return shardDown(i, ShardRebuilding)
	}
	err := h.br.allow(i)
	if err != nil && !c.supSeen.Load() {
		// No supervisor has ever attended this cluster (an embedder that
		// never calls StartSupervisor): run the clock transitions inline
		// so the breaker still half-opens after the cooldown instead of
		// fast-failing forever. Refusal path only — the healthy fast
		// path never reads a clock.
		c.breakerTick(&h.br, time.Now())
		if h.br.state.Load() == breakerHalfOpen {
			err = h.br.allow(i)
		}
	}
	return err
}

// shardReport feeds one crossing's verdict into shard i's breaker: nil for
// a crossing that completed, whatever its ops returned.
func (c *Cluster) shardReport(i int, err error) {
	state := ShardRecovering
	if errors.Is(err, hodor.ErrPoisoned) {
		state = ShardPoisoned
	}
	c.shardHealth(i).br.report(err, c.breakerThreshold(), state)
}

// SuperviseOnce runs one supervisor pass at the given time: poisoned
// shards enter the rebuild ladder, open breakers past the cooldown go
// half-open. Tests drive it directly with a fake clock (the same
// injectable-clock discipline as WatchdogSweep); production uses
// StartSupervisor.
func (c *Cluster) SuperviseOnce(now time.Time) {
	c.supSeen.Store(true)
	top := c.top()
	for i := range top.shards {
		h := c.shardHealth(i)
		if top.shards[i].Library().Poisoned() && !h.rebuilding.Load() {
			h.br.trip(ShardRebuilding)
			if err := c.rebuildShard(i, now); err != nil {
				h.rebuildFailures.Add(1) // breaker stays open; retried next pass
			}
			continue
		}
		c.breakerTick(&h.br, now)
	}
}

// breakerTick runs the clock-based breaker transitions for one shard.
func (c *Cluster) breakerTick(br *shardBreaker, now time.Time) {
	switch br.state.Load() {
	case breakerOpen:
		opened := br.openedAt.Load()
		if opened == 0 {
			// First observation after the trip: the cooldown starts on the
			// supervisor's clock, not the data path's.
			br.openedAt.Store(now.UnixNano())
			return
		}
		if now.Sub(time.Unix(0, opened)) >= c.breakerCooldown() {
			br.state.CompareAndSwap(breakerOpen, breakerHalfOpen)
		}
	case breakerProbe:
		// A probe whose caller never reports (died mid-crossing, or
		// parked on a gate that outlived the cooldown) must not wedge
		// the breaker: revert the stale probe to open and restart the
		// cooldown. A late report from the timed-out caller finds the
		// state already open and leaves it for the next cycle.
		started := br.probedAt.Load()
		if started == 0 {
			br.probedAt.Store(now.UnixNano())
			return
		}
		if now.Sub(time.Unix(0, started)) >= c.breakerCooldown() {
			if br.state.CompareAndSwap(breakerProbe, breakerOpen) {
				br.openedAt.Store(0)
			}
		}
	}
}

// StartSupervisor starts the background lifecycle loop: one SuperviseOnce
// pass per interval on the wall clock. Idempotent while running.
func (c *Cluster) StartSupervisor(interval time.Duration) {
	c.supMu.Lock()
	defer c.supMu.Unlock()
	c.supSeen.Store(true)
	if c.supStop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	c.supStop, c.supDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.SuperviseOnce(time.Now())
			}
		}
	}()
}

// StopSupervisor stops the background lifecycle loop and waits for the
// in-flight pass (if any) to finish.
func (c *Cluster) StopSupervisor() {
	c.supMu.Lock()
	stop, done := c.supStop, c.supDone
	c.supStop, c.supDone = nil, nil
	c.supMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

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
// are untouched until the single pointer swap). Returns with the breaker
// closed on success; on failure the breaker stays open and the next
// supervisor pass retries.
func (c *Cluster) rebuildShard(i int, now time.Time) error {
	// Exclude a concurrent resize: both reshape the topology. A live
	// migration keeps the shard set in flux — park until it finishes
	// (the poisoned shard keeps failing fast behind its open breaker).
	// Checked under resizeMu: Resize installs the migration while holding
	// the same lock, so a check before Lock() could race a Resize that
	// slips in between and leave the rebuild swapping topology mid-flight.
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	if c.mig.Load() != nil {
		return fmt.Errorf("memcached: shard %d rebuild deferred: migration in flight", i)
	}

	h := c.shardHealth(i)
	if !h.rebuilding.CompareAndSwap(false, true) {
		return nil // already in flight
	}
	defer h.rebuilding.Store(false)
	start := time.Now()

	old := c.top().shards[i]
	// Re-verify poison now that the lock is held: a caller whose
	// Poisoned() precheck passed but then queued behind a completed
	// rebuild (manual RebuildShard racing the supervisor, or two
	// supervisor passes) must not re-run the ladder on the healthy
	// replacement — detaching it would silently discard every write it
	// accepted since. Close the breaker the caller tripped and keep it.
	if lib := old.Library(); lib == nil || !lib.Poisoned() {
		h.br.close()
		return nil
	}
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
			return fmt.Errorf("memcached: shard %d rebuild: %w", i, err)
		}
		nb = created
	}
	c.cfg.setupShard(nb, i)
	// Resume in the dead store's CAS space, bumped a generation: stale
	// tokens from before the crash can never ABA against new mints.
	seed := preCAS
	if base := shardCASBase(i); seed < base {
		seed = base
	}
	nb.Store().SeedCAS(seed + casRebuildGap)

	// Resume the background loops at the cluster's recorded cadence.
	if iv := c.maintEvery.Load(); iv > 0 {
		nb.StartMaintenance(time.Duration(iv))
	}
	if iv := c.ckptEvery.Load(); iv > 0 && sc.Path != "" {
		nb.StartCheckpointing(time.Duration(iv))
	}

	// Re-attach under the routing barrier: one write-locked pointer swap,
	// the same discipline Resize uses. Survivors never see a torn view.
	c.routeMu.Lock()
	top := c.top()
	shards := append([]*Bookkeeper(nil), top.shards...)
	shards[i] = nb
	c.topo.Store(&topology{ring: top.ring, shards: shards})
	c.routeMu.Unlock()

	// If the shard came back empty, persist that fact immediately: the
	// seeded generation makes this image outrank the stale candidates,
	// so a process restart agrees with the live cluster. Best-effort —
	// a disk fault here is counted by the checkpoint accounting.
	if !fromImage && sc.Path != "" {
		nb.Checkpoint() //nolint:errcheck // degraded disk must not fail the rebuild
	}

	h.br.close()
	h.rebuilds.Add(1)
	if !fromImage {
		h.rebuiltEmpty.Add(1)
	}
	h.lastRebuildNS.Store(int64(time.Since(start)))
	h.lastRebuildAt.Store(now.UnixNano())
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
		b.repairReportMu.Lock()
		b.ckptGen = gen
		b.repairReportMu.Unlock()
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
	c.shardHealth(i).br.trip(ShardRebuilding)
	return c.rebuildShard(i, time.Now())
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
}

// ShardStatuses snapshots every shard's lifecycle state.
func (c *Cluster) ShardStatuses() []ShardStatus {
	n := len(c.top().shards)
	out := make([]ShardStatus, n)
	for i := 0; i < n; i++ {
		h := c.shardHealth(i)
		out[i] = ShardStatus{
			Shard:         i,
			State:         c.State(i),
			Breaker:       breakerStateName(h.br.state.Load()),
			Rebuilds:      h.rebuilds.Load(),
			RebuiltEmpty:  h.rebuiltEmpty.Load(),
			RebuiltAtOpen: h.rebuiltAtOpen.Load(),
			BreakerTrips:  h.br.trips.Load(),
			FastFails:     h.br.fastFails.Load(),
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
	hs := c.health.Load()
	if hs == nil {
		return m
	}
	for _, h := range *hs {
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
