package memcached

import (
	"errors"
	"fmt"
	"sync"

	"plibmc/internal/hodor"
	"plibmc/internal/proc"
)

// SessionPool hands out sessions to short-lived workers — e.g. HTTP
// handler goroutines — that don't have a long-lived thread of their own.
// A Session models a thread and is not safe for concurrent use; the pool
// amortizes session setup (thread creation, Hodor attach, allocator cache)
// across many brief borrowings.
type SessionPool struct{ pool[*Session] }

// NewSessionPool creates a pool that will create at most max sessions
// (0 = unlimited). Sessions are created lazily on first Get.
func (cp *ClientProcess) NewSessionPool(max int) *SessionPool {
	return &SessionPool{pool[*Session]{open: cp.NewSession, max: max}}
}

// pooled is what a pool holds: a Session, or a ClusterSession for the
// cluster's socket server, whose connections each borrow one.
type pooled interface {
	Healthy() bool
	Close()
}

// pool is the free list behind SessionPool and the socket servers. open
// creates a session when none is idle.
type pool[S pooled] struct {
	open func() (S, error)

	mu     sync.Mutex
	free   []S
	total  int
	max    int
	closed bool
}

// Get borrows a session, creating one if none is idle.
func (p *pool[S]) Get() (S, error) {
	var zero S
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return zero, fmt.Errorf("memcached: session pool is closed")
	}
	// Idle sessions can die while pooled (their process killed); skip and
	// release any that did rather than handing a borrower a dead session.
	for n := len(p.free); n > 0; n = len(p.free) {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		if s.Healthy() {
			p.mu.Unlock()
			return s, nil
		}
		s.Close()
		p.total--
	}
	if p.max > 0 && p.total >= p.max {
		p.mu.Unlock()
		return zero, fmt.Errorf("memcached: session pool exhausted (%d in use)", p.max)
	}
	p.total++
	p.mu.Unlock()

	s, err := p.open()
	if err != nil {
		p.mu.Lock()
		p.total--
		p.mu.Unlock()
		return zero, err
	}
	return s, nil
}

// Put returns a borrowed session. Sessions from other pools or processes
// must not be Put here. A session that died while borrowed — its domain
// reaped by the watchdog, or its process killed — is discarded instead of
// re-pooled: recycling it would poison every future borrower with
// ErrSessionReaped/ErrKilled.
func (p *pool[S]) Put(s S) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || !s.Healthy() {
		s.Close()
		p.total--
		return
	}
	p.free = append(p.free, s)
}

// With borrows a session for the duration of fn — the common pattern for
// request handlers. If fn returns a session-fatal error the session is
// discarded rather than re-pooled.
func (p *pool[S]) With(fn func(S) error) error {
	s, err := p.Get()
	if err != nil {
		return err
	}
	err = fn(s)
	if sessionFatal(err) {
		p.mu.Lock()
		s.Close()
		p.total--
		p.mu.Unlock()
		return err
	}
	p.Put(s)
	return err
}

// sessionFatal reports whether an error from a session operation means the
// session itself is unusable (as opposed to a per-key outcome like
// ErrNotFound or transient backpressure).
//
// Recovery-class errors are explicitly NOT fatal, and the check runs
// first because they can wrap fatal-looking causes: a tripped shard
// breaker (ErrShardDown) carries ErrPoisoned as its cause, yet the
// borrower's session is attached to the caller's process, not the dying
// shard — it stays perfectly usable once the supervisor swaps in the
// rebuilt store. Discarding it on every shard hiccup would churn the
// pool exactly when the system is trying to ride out a failure.
func sessionFatal(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrShardDown) || errors.Is(err, ErrRecovering) ||
		hodor.Retryable(err) {
		return false
	}
	var killed *proc.ErrKilled
	return errors.Is(err, hodor.ErrSessionReaped) ||
		errors.Is(err, hodor.ErrPoisoned) ||
		errors.As(err, &killed)
}

// Close releases every idle session. Sessions still borrowed are released
// when Put back.
func (p *pool[S]) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, s := range p.free {
		s.Close()
		p.total--
	}
	p.free = nil
}

// Stats reports pool occupancy: total created and currently idle.
func (p *pool[S]) Stats() (total, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total, len(p.free)
}
