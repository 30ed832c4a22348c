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
	kv      memcached.KV
	socket  bool // kv speaks over a socket, where the network calls mean something
	strict  bool
	servers []string
	behav   map[Behavior]uint64
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
func (m *St) UsePlib(s memcached.KV) { m.kv, m.socket = s, false }

// UseSocket attaches the original socket backend.
func (m *St) UseSocket(c *client.Client) { m.kv, m.socket = memcached.NewSocketSession(c), true }

// AddServer records a server (memcached_server_add). With the plib backend
// it is configuration with no effect, exactly as the paper treats it.
func (m *St) AddServer(host string, port int) ReturnT {
	if m.strict && m.kv != nil && !m.socket {
		return NotSupported
	}
	m.servers = append(m.servers, fmt.Sprintf("%s:%d", host, port))
	return Success
}

// SetBehavior configures a network behaviour (memcached_behavior_set):
// a no-op for direct calls, an error in strict mode.
func (m *St) SetBehavior(b Behavior, v uint64) ReturnT {
	if m.strict && m.kv != nil && !m.socket {
		return NotSupported
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
	case errors.Is(err, memcached.ErrKeyTooLong), errors.Is(err, memcached.ErrBadKey):
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
	if m.kv == nil {
		return nil, 0, ClientError
	}
	v, flags, err := m.kv.Get(key)
	return v, flags, m.ret(err)
}

// Set is memcached_set.
func (m *St) Set(key, value []byte, exptime int64, flags uint32) ReturnT {
	if m.kv == nil {
		return ClientError
	}
	return m.ret(m.kv.Set(key, value, flags, exptime))
}

// Add is memcached_add.
func (m *St) Add(key, value []byte, exptime int64, flags uint32) ReturnT {
	if m.kv == nil {
		return ClientError
	}
	err := m.kv.Add(key, value, flags, exptime)
	if m.ret(err) == DataExists {
		return NotStored
	}
	return m.ret(err)
}

// Replace is memcached_replace.
func (m *St) Replace(key, value []byte, exptime int64, flags uint32) ReturnT {
	if m.kv == nil {
		return ClientError
	}
	err := m.kv.Replace(key, value, flags, exptime)
	if m.ret(err) == NotFound {
		return NotStored
	}
	return m.ret(err)
}

// Delete is memcached_delete.
func (m *St) Delete(key []byte) ReturnT {
	if m.kv == nil {
		return ClientError
	}
	return m.ret(m.kv.Delete(key))
}

// Increment is memcached_increment.
func (m *St) Increment(key []byte, delta uint64) (uint64, ReturnT) {
	if m.kv == nil {
		return 0, ClientError
	}
	v, err := m.kv.Increment(key, delta)
	return v, m.ret(err)
}

// Decrement is memcached_decrement.
func (m *St) Decrement(key []byte, delta uint64) (uint64, ReturnT) {
	if m.kv == nil {
		return 0, ClientError
	}
	v, err := m.kv.Decrement(key, delta)
	return v, m.ret(err)
}

// Append is memcached_append.
func (m *St) Append(key, data []byte) ReturnT {
	if m.kv == nil {
		return ClientError
	}
	return m.ret(m.kv.Append(key, data))
}

// Prepend is memcached_prepend.
func (m *St) Prepend(key, data []byte) ReturnT {
	if m.kv == nil {
		return ClientError
	}
	return m.ret(m.kv.Prepend(key, data))
}

// Touch is memcached_touch.
func (m *St) Touch(key []byte, exptime int64) ReturnT {
	if m.kv == nil {
		return ClientError
	}
	return m.ret(m.kv.Touch(key, exptime))
}

// Flush is memcached_flush.
func (m *St) Flush() ReturnT {
	if m.kv == nil {
		return ClientError
	}
	return m.ret(m.kv.FlushAll())
}

// MGet is memcached_mget + memcached_fetch collapsed into one call:
// retrieve many keys at once. Over the socket backend this is one
// pipelined write; over the protected library it is one trampoline
// crossing for the whole batch. The map is the caller's: its values are
// copied out of the handle's lent results into one buffer per call.
func (m *St) MGet(keys [][]byte) (map[string][]byte, ReturnT) {
	if m.kv == nil {
		return nil, ClientError
	}
	res, err := m.kv.MGet(keys)
	if err != nil {
		return nil, Failure
	}
	n := 0
	for _, r := range res {
		n += len(r.Value)
	}
	buf := make([]byte, 0, n)
	out := make(map[string][]byte, len(res))
	for i, r := range res {
		if r.Found {
			buf = append(buf, r.Value...)
			out[string(keys[i])] = buf[len(buf)-len(r.Value) : len(buf) : len(buf)]
		}
	}
	return out, Success
}

// GAT is memcached_get_by_key with expiration (get-and-touch).
func (m *St) GAT(key []byte, exptime int64) ([]byte, uint32, ReturnT) {
	if m.kv == nil {
		return nil, 0, ClientError
	}
	v, flags, err := m.kv.GetAndTouch(key, exptime)
	return v, flags, m.ret(err)
}

// GetWithCallback is the asynchronous API (§3.1): the callback runs as soon
// as the call returns, since direct calls complete immediately.
func (m *St) GetWithCallback(key []byte, cb func(value []byte, flags uint32, rc ReturnT)) {
	v, flags, rc := m.Get(key)
	cb(v, flags, rc)
}
