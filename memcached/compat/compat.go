// Package compat provides the classic libmemcached-style API — the one
// that takes a memcached_st handle carrying "server information, protocol
// details, and the state of the current operation, none of which are
// required for direct-through-Hodor calls" (§3.1). Existing applications
// keep their calls unchanged; the handle's backend can be the protected
// library (drop-in acceleration) or a socket client (the original
// behaviour), and connection-configuration calls become no-ops by default
// or errors in strict mode "to facilitate migration to the newer
// interface."
package compat

import (
	"errors"
	"fmt"

	"plibmc/internal/client"
	"plibmc/memcached"
)

// ReturnT is memcached_return_t.
type ReturnT int

// Return codes (a practical subset).
const (
	Success ReturnT = iota
	Failure
	NotFound
	NotStored
	DataExists
	ClientError
	ServerError
	NotSupported
	BadKeyProvided
	E2Big
)

func (r ReturnT) String() string {
	names := map[ReturnT]string{
		Success: "SUCCESS", Failure: "FAILURE", NotFound: "NOTFOUND",
		NotStored: "NOT_STORED", DataExists: "DATA_EXISTS",
		ClientError: "CLIENT_ERROR", ServerError: "SERVER_ERROR",
		NotSupported: "NOT_SUPPORTED", BadKeyProvided: "BAD_KEY_PROVIDED",
		E2Big: "E2BIG",
	}
	if s, ok := names[r]; ok {
		return s
	}
	return fmt.Sprintf("RETURN(%d)", int(r))
}

// Behavior is memcached_behavior_t: connection and protocol knobs that are
// meaningless for direct calls.
type Behavior int

// Behaviors (a practical subset; all are network-related).
const (
	BehaviorBinaryProtocol Behavior = iota
	BehaviorTCPNoDelay
	BehaviorNoBlock
	BehaviorSndTimeout
	BehaviorRcvTimeout
	BehaviorConnectTimeout
	BehaviorRetryTimeout
)

// St is memcached_st. Zero value is unusable; use Create.
type St struct {
	backend backend
	strict  bool
	servers []string
	behav   map[Behavior]uint64
}

// backend is the slice of memcached.KV the classic API needs, under the
// KV's own method names so a session serves as is; mget is the one call
// whose result shape differs.
type backend interface {
	Get(key []byte) ([]byte, uint32, error)
	GetAndTouch(key []byte, exptime int64) ([]byte, uint32, error)
	Set(key, value []byte, flags uint32, exptime int64) error
	Add(key, value []byte, flags uint32, exptime int64) error
	Replace(key, value []byte, flags uint32, exptime int64) error
	Delete(key []byte) error
	Increment(key []byte, delta uint64) (uint64, error)
	Decrement(key []byte, delta uint64) (uint64, error)
	Append(key, data []byte) error
	Prepend(key, data []byte) error
	Touch(key []byte, exptime int64) error
	FlushAll() error
	mget(keys [][]byte) (map[string][]byte, error)
}

// Create builds an unconnected handle (memcached_create).
func Create() *St {
	return &St{behav: make(map[Behavior]uint64)}
}

// SetStrict makes network-configuration calls return NotSupported instead
// of silently succeeding, to surface dead configuration during migration.
func (m *St) SetStrict(on bool) { m.strict = on }

// UsePlib attaches the protected-library backend: the drop-in replacement.
// Any session type serves — one store or a sharded cluster.
func (m *St) UsePlib(s memcached.KV) { m.backend = plibBackend{s} }

// UseSocket attaches the original socket backend.
func (m *St) UseSocket(c *client.Client) { m.backend = sockBackend{c} }

// AddServer records a server (memcached_server_add). With the plib backend
// it is configuration with no effect, exactly as the paper treats it.
func (m *St) AddServer(host string, port int) ReturnT {
	if m.strict {
		if _, ok := m.backend.(plibBackend); ok {
			return NotSupported
		}
	}
	m.servers = append(m.servers, fmt.Sprintf("%s:%d", host, port))
	return Success
}

// SetBehavior configures a network behaviour (memcached_behavior_set):
// a no-op for direct calls, an error in strict mode.
func (m *St) SetBehavior(b Behavior, v uint64) ReturnT {
	if m.strict {
		if _, ok := m.backend.(plibBackend); ok {
			return NotSupported
		}
	}
	m.behav[b] = v
	return Success
}

func (m *St) ret(err error) ReturnT {
	switch {
	case err == nil:
		return Success
	case errors.Is(err, memcached.ErrNotFound):
		return NotFound
	case errors.Is(err, memcached.ErrExists), errors.Is(err, memcached.ErrCASMismatch):
		return DataExists
	case errors.Is(err, memcached.ErrKeyTooLong):
		return BadKeyProvided
	case errors.Is(err, memcached.ErrValueTooBig):
		return E2Big
	case errors.Is(err, memcached.ErrNoSpace):
		return ServerError
	default:
		return Failure
	}
}

// Get is memcached_get: returns the value, its flags, and a return code.
func (m *St) Get(key []byte) ([]byte, uint32, ReturnT) {
	if m.backend == nil {
		return nil, 0, ClientError
	}
	v, flags, err := m.backend.Get(key)
	return v, flags, m.ret(err)
}

// Set is memcached_set.
func (m *St) Set(key, value []byte, exptime int64, flags uint32) ReturnT {
	if m.backend == nil {
		return ClientError
	}
	return m.ret(m.backend.Set(key, value, flags, exptime))
}

// Add is memcached_add.
func (m *St) Add(key, value []byte, exptime int64, flags uint32) ReturnT {
	if m.backend == nil {
		return ClientError
	}
	err := m.backend.Add(key, value, flags, exptime)
	if m.ret(err) == DataExists {
		return NotStored
	}
	return m.ret(err)
}

// Replace is memcached_replace.
func (m *St) Replace(key, value []byte, exptime int64, flags uint32) ReturnT {
	if m.backend == nil {
		return ClientError
	}
	err := m.backend.Replace(key, value, flags, exptime)
	if m.ret(err) == NotFound {
		return NotStored
	}
	return m.ret(err)
}

// Delete is memcached_delete.
func (m *St) Delete(key []byte) ReturnT {
	if m.backend == nil {
		return ClientError
	}
	return m.ret(m.backend.Delete(key))
}

// Increment is memcached_increment.
func (m *St) Increment(key []byte, delta uint64) (uint64, ReturnT) {
	if m.backend == nil {
		return 0, ClientError
	}
	v, err := m.backend.Increment(key, delta)
	return v, m.ret(err)
}

// Decrement is memcached_decrement.
func (m *St) Decrement(key []byte, delta uint64) (uint64, ReturnT) {
	if m.backend == nil {
		return 0, ClientError
	}
	v, err := m.backend.Decrement(key, delta)
	return v, m.ret(err)
}

// Append is memcached_append.
func (m *St) Append(key, data []byte) ReturnT {
	if m.backend == nil {
		return ClientError
	}
	return m.ret(m.backend.Append(key, data))
}

// Prepend is memcached_prepend.
func (m *St) Prepend(key, data []byte) ReturnT {
	if m.backend == nil {
		return ClientError
	}
	return m.ret(m.backend.Prepend(key, data))
}

// Touch is memcached_touch.
func (m *St) Touch(key []byte, exptime int64) ReturnT {
	if m.backend == nil {
		return ClientError
	}
	return m.ret(m.backend.Touch(key, exptime))
}

// Flush is memcached_flush.
func (m *St) Flush() ReturnT {
	if m.backend == nil {
		return ClientError
	}
	return m.ret(m.backend.FlushAll())
}

// MGet is memcached_mget + memcached_fetch collapsed into one call:
// retrieve many keys at once. Over the socket backend this is the batched
// quiet-get pipeline; over the protected library it is one trampoline
// crossing for the whole batch.
func (m *St) MGet(keys [][]byte) (map[string][]byte, ReturnT) {
	if m.backend == nil {
		return nil, ClientError
	}
	out, err := m.backend.mget(keys)
	if err != nil {
		return nil, Failure
	}
	return out, Success
}

// GAT is memcached_get_by_key with expiration (get-and-touch).
func (m *St) GAT(key []byte, exptime int64) ([]byte, uint32, ReturnT) {
	if m.backend == nil {
		return nil, 0, ClientError
	}
	v, flags, err := m.backend.GetAndTouch(key, exptime)
	return v, flags, m.ret(err)
}

// GetWithCallback is the asynchronous API (§3.1): the callback runs as soon
// as the call returns, since direct calls complete immediately.
func (m *St) GetWithCallback(key []byte, cb func(value []byte, flags uint32, rc ReturnT)) {
	v, flags, rc := m.Get(key)
	cb(v, flags, rc)
}

// plibBackend is a protected-library session, used directly.
type plibBackend struct{ memcached.KV }

func (b plibBackend) mget(keys [][]byte) (map[string][]byte, error) {
	res, err := b.MGet(keys)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(res))
	for i, r := range res {
		if r.Found {
			out[string(keys[i])] = r.Value
		}
	}
	return out, nil
}

// sockBackend adapts the socket client: each call's error goes through
// sockErr.
type sockBackend struct{ c *client.Client }

// sockErr maps the socket client's reply sentinels onto the library's
// outcome errors. Every other error — a dead connection, a server error —
// passes through, so ret reports it as Failure, never as a miss or a
// refusal. The baseline server answers NOT_STORED only to an append or
// prepend on a missing key, which the protected library calls ErrNotFound.
func sockErr(err error) error {
	switch {
	case errors.Is(err, client.ErrNotFound), errors.Is(err, client.ErrNotStored):
		return memcached.ErrNotFound
	case errors.Is(err, client.ErrExists):
		return memcached.ErrExists
	case errors.Is(err, client.ErrNonNumeric):
		return memcached.ErrNotNumeric
	case errors.Is(err, client.ErrOutOfMemory):
		return memcached.ErrNoSpace
	}
	return err
}

func (b sockBackend) Get(key []byte) ([]byte, uint32, error) {
	v, f, _, err := b.c.Get(key)
	return v, f, sockErr(err)
}
func (b sockBackend) GetAndTouch(key []byte, exptime int64) ([]byte, uint32, error) {
	v, f, _, err := b.c.GetAndTouch(key, exptime)
	return v, f, sockErr(err)
}
func (b sockBackend) Set(k, v []byte, f uint32, e int64) error { return sockErr(b.c.Set(k, v, f, e)) }
func (b sockBackend) Add(k, v []byte, f uint32, e int64) error { return sockErr(b.c.Add(k, v, f, e)) }
func (b sockBackend) Replace(k, v []byte, f uint32, e int64) error {
	return sockErr(b.c.Replace(k, v, f, e))
}
func (b sockBackend) Delete(k []byte) error { return sockErr(b.c.Delete(k)) }
func (b sockBackend) Increment(k []byte, d uint64) (uint64, error) {
	v, err := b.c.Increment(k, d)
	return v, sockErr(err)
}
func (b sockBackend) Decrement(k []byte, d uint64) (uint64, error) {
	v, err := b.c.Decrement(k, d)
	return v, sockErr(err)
}
func (b sockBackend) Append(k, d []byte) error                      { return sockErr(b.c.Append(k, d)) }
func (b sockBackend) Prepend(k, d []byte) error                     { return sockErr(b.c.Prepend(k, d)) }
func (b sockBackend) Touch(k []byte, e int64) error                 { return sockErr(b.c.Touch(k, e)) }
func (b sockBackend) FlushAll() error                               { return sockErr(b.c.FlushAll()) }
func (b sockBackend) mget(keys [][]byte) (map[string][]byte, error) { return b.c.MGet(keys) }
