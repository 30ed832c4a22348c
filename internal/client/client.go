// Package client is the socket client for the baseline server: the role of
// libmemcached. It speaks either wire protocol over a single connection,
// and implements multi-get batching (quiet gets terminated by a noop) —
// the paper notes that "much of the client library is devoted to batching
// of requests" precisely because each round trip is so expensive.
//
// A Client corresponds to a memcached_st: it is not safe for concurrent
// use; create one per client thread.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"plibmc/internal/protocol"
)

// Protocol selects the wire format.
type Protocol int

// Wire protocols.
const (
	Binary Protocol = iota // compact, better performance
	ASCII                  // readable, better debugability
)

// ErrRetriesExhausted reports that every connection attempt the retry
// policy allowed has failed. It always arrives wrapped with the last
// underlying dial error, so errors.Is(err, ErrRetriesExhausted) classifies
// the failure while errors.As/Unwrap still reach the network cause.
var ErrRetriesExhausted = errors.New("client: connection retries exhausted")

// Options tunes connection establishment and per-operation IO. The zero
// value preserves the historical behaviour (5s dial timeout, no IO
// deadlines, a single connection attempt).
type Options struct {
	// DialTimeout bounds one connection attempt. Zero means 5 seconds.
	DialTimeout time.Duration
	// IOTimeout bounds each request/response round trip (a deadline armed
	// on the socket at the start of every operation). Zero disables it —
	// a stalled server then blocks the caller, as before.
	IOTimeout time.Duration
	// MaxRetries is how many times a failed dial is retried beyond the
	// first attempt, with exponential backoff and jitter between tries.
	// Zero keeps dialing single-shot.
	MaxRetries int
	// RetryBase is the first backoff sleep, doubled each retry. Zero means
	// 10ms.
	RetryBase time.Duration
	// RetryCap clamps the backoff growth. Zero means 1s.
	RetryCap time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = time.Second
	}
	return o
}

// retriesError carries the attempt count and the final cause under the
// ErrRetriesExhausted class.
type retriesError struct {
	attempts int
	last     error
}

func (e *retriesError) Error() string {
	return fmt.Sprintf("client: %d connection attempts failed, last: %v", e.attempts, e.last)
}
func (e *retriesError) Is(target error) bool { return target == ErrRetriesExhausted }
func (e *retriesError) Unwrap() error        { return e.last }

// Client is a connection to one memcached server.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	proto   Protocol
	network string
	addr    string
	opts    Options
	rng     *rand.Rand
}

// Dial connects to a server with default Options. network/addr as for
// net.Dial; "unix" + socket path matches the paper's local setup.
func Dial(network, addr string, proto Protocol) (*Client, error) {
	return DialWithOptions(network, addr, proto, Options{})
}

// DialWithOptions connects to a server under an explicit retry/timeout
// policy. With MaxRetries > 0 a failed dial is retried with exponential
// backoff (RetryBase doubling up to RetryCap) plus up to 50% random
// jitter, so a thundering herd of clients reconnecting to a restarted
// server spreads out; when every attempt fails the error matches
// ErrRetriesExhausted and unwraps to the last dial failure.
func DialWithOptions(network, addr string, proto Protocol, opts Options) (*Client, error) {
	c := &Client{
		proto:   proto,
		network: network,
		addr:    addr,
		opts:    opts.withDefaults(),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials (or redials) under the client's retry policy.
func (c *Client) connect() error {
	backoff := c.opts.RetryBase
	var last error
	for attempt := 0; ; attempt++ {
		conn, err := net.DialTimeout(c.network, c.addr, c.opts.DialTimeout)
		if err == nil {
			c.conn = conn
			c.r = bufio.NewReaderSize(conn, 64<<10)
			c.w = bufio.NewWriterSize(conn, 64<<10)
			return nil
		}
		last = err
		if attempt >= c.opts.MaxRetries {
			if c.opts.MaxRetries == 0 {
				return fmt.Errorf("client: %w", last)
			}
			return &retriesError{attempts: attempt + 1, last: last}
		}
		sleep := backoff + time.Duration(c.rng.Int63n(int64(backoff)/2+1))
		time.Sleep(sleep)
		if backoff < c.opts.RetryCap {
			if backoff *= 2; backoff > c.opts.RetryCap {
				backoff = c.opts.RetryCap
			}
		}
	}
}

// Reconnect tears down the current connection and re-establishes it under
// the same retry policy — the recovery path after an IO timeout or a
// server restart, since a deadline error leaves the wire mid-message.
func (c *Client) Reconnect() error {
	if c.conn != nil {
		c.conn.Close() //nolint:errcheck
	}
	return c.connect()
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// armDeadline sets the per-operation IO deadline, if one is configured.
// Called at the start of every operation: the deadline covers the whole
// round trip (write, server think time, read).
func (c *Client) armDeadline() {
	if c.opts.IOTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout)) //nolint:errcheck
	}
}

// roundTrip sends one command and reads its reply.
func (c *Client) roundTrip(cmd *protocol.Command) (*protocol.Reply, error) {
	c.armDeadline()
	if c.proto == Binary {
		if err := protocol.WriteBinaryCommand(c.w, cmd); err != nil {
			return nil, err
		}
		if err := c.w.Flush(); err != nil {
			return nil, err
		}
		if cmd.Op == protocol.OpStats {
			return c.readBinaryStats()
		}
		rep, _, err := protocol.ReadBinaryReply(c.r)
		return rep, err
	}
	if err := protocol.WriteASCIICommand(c.w, cmd); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return protocol.ReadASCIIReply(c.r, cmd)
}

func (c *Client) readBinaryStats() (*protocol.Reply, error) {
	rep := &protocol.Reply{Status: protocol.StatusOK}
	for {
		frame, _, err := protocol.ReadBinaryReply(c.r)
		if err != nil {
			return nil, err
		}
		if len(frame.Key) == 0 {
			return rep, nil
		}
		rep.Stats = append(rep.Stats, [2]string{string(frame.Key), string(frame.Value)})
	}
}

// Get fetches one key.
func (c *Client) Get(key []byte) (value []byte, flags uint32, cas uint64, err error) {
	rep, err := c.roundTrip(&protocol.Command{Op: protocol.OpGet, Key: key})
	if err != nil {
		return nil, 0, 0, err
	}
	if rep.Status != protocol.StatusOK {
		return nil, 0, 0, statusErr(rep.Status)
	}
	return rep.Value, rep.Flags, rep.CAS, nil
}

// Set stores a value unconditionally.
func (c *Client) Set(key, value []byte, flags uint32, exptime int64) error {
	return c.simpleStore(protocol.OpSet, key, value, flags, exptime, 0)
}

// Add stores only if the key is absent.
func (c *Client) Add(key, value []byte, flags uint32, exptime int64) error {
	return c.simpleStore(protocol.OpAdd, key, value, flags, exptime, 0)
}

// Replace stores only if the key is present.
func (c *Client) Replace(key, value []byte, flags uint32, exptime int64) error {
	return c.simpleStore(protocol.OpReplace, key, value, flags, exptime, 0)
}

// CAS stores only if the generation matches.
func (c *Client) CAS(key, value []byte, flags uint32, exptime int64, cas uint64) error {
	return c.simpleStore(protocol.OpCAS, key, value, flags, exptime, cas)
}

// Append concatenates after the existing value.
func (c *Client) Append(key, value []byte) error {
	return c.simpleStore(protocol.OpAppend, key, value, 0, 0, 0)
}

// Prepend concatenates before the existing value.
func (c *Client) Prepend(key, value []byte) error {
	return c.simpleStore(protocol.OpPrepend, key, value, 0, 0, 0)
}

func (c *Client) simpleStore(op protocol.Op, key, value []byte, flags uint32, exptime int64, cas uint64) error {
	return c.exec(&protocol.Command{
		Op: op, Key: key, Value: value, Flags: flags, Exptime: exptime, CAS: cas,
	})
}

// exec runs a command whose reply carries only its status.
func (c *Client) exec(cmd *protocol.Command) error {
	rep, err := c.roundTrip(cmd)
	if err == nil && rep.Status != protocol.StatusOK {
		err = statusErr(rep.Status)
	}
	return err
}

// Delete removes a key.
func (c *Client) Delete(key []byte) error {
	return c.exec(&protocol.Command{Op: protocol.OpDelete, Key: key})
}

// Increment adds delta to a numeric value.
func (c *Client) Increment(key []byte, delta uint64) (uint64, error) {
	return c.incrDecr(protocol.OpIncr, key, delta)
}

// Decrement subtracts delta, saturating at zero.
func (c *Client) Decrement(key []byte, delta uint64) (uint64, error) {
	return c.incrDecr(protocol.OpDecr, key, delta)
}

func (c *Client) incrDecr(op protocol.Op, key []byte, delta uint64) (uint64, error) {
	rep, err := c.roundTrip(&protocol.Command{Op: op, Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	if rep.Status != protocol.StatusOK {
		return 0, statusErr(rep.Status)
	}
	return rep.Numeric, nil
}

// GetAndTouch fetches a key and updates its expiry in one round trip.
func (c *Client) GetAndTouch(key []byte, exptime int64) ([]byte, uint32, uint64, error) {
	rep, err := c.roundTrip(&protocol.Command{Op: protocol.OpGAT, Key: key, Exptime: exptime})
	if err != nil {
		return nil, 0, 0, err
	}
	if rep.Status != protocol.StatusOK {
		return nil, 0, 0, statusErr(rep.Status)
	}
	return rep.Value, rep.Flags, rep.CAS, nil
}

// Touch updates a key's expiry.
func (c *Client) Touch(key []byte, exptime int64) error {
	return c.exec(&protocol.Command{Op: protocol.OpTouch, Key: key, Exptime: exptime})
}

// FlushAll empties the server. A server that could not flush everything
// (a cluster proxy with a shard down) answers with an error status.
func (c *Client) FlushAll() error {
	return c.exec(&protocol.Command{Op: protocol.OpFlushAll})
}

// Stats fetches the server's statistics.
func (c *Client) Stats() (map[string]string, error) {
	rep, err := c.roundTrip(&protocol.Command{Op: protocol.OpStats})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(rep.Stats))
	for _, kv := range rep.Stats {
		out[kv[0]] = kv[1]
	}
	return out, nil
}

// Version fetches the server version string.
func (c *Client) Version() (string, error) {
	rep, err := c.roundTrip(&protocol.Command{Op: protocol.OpVersion})
	if err != nil {
		return "", err
	}
	return rep.Version, nil
}

// MGet fetches many keys in one batch. With the binary protocol it
// pipelines quiet gets terminated by a noop: one write, one read, any
// number of keys — the batching that makes socket memcached tolerable.
func (c *Client) MGet(keys [][]byte) (map[string][]byte, error) {
	c.armDeadline()
	out := make(map[string][]byte, len(keys))
	if c.proto == ASCII {
		// "get k1 k2 ..." in a single line; VALUE blocks then END.
		c.w.WriteString("get")
		for _, k := range keys {
			c.w.WriteByte(' ')
			c.w.Write(k)
		}
		c.w.WriteString("\r\n")
		if err := c.w.Flush(); err != nil {
			return nil, err
		}
		for {
			var rep protocol.Reply
			end, err := protocol.ReadASCIIValue(c.r, &rep)
			if err != nil {
				return nil, err
			}
			if end {
				return out, nil
			}
			out[string(rep.Key)] = rep.Value
		}
	}
	for i, k := range keys {
		if err := protocol.WriteBinaryCommand(c.w, &protocol.Command{
			Op: protocol.OpGet, Key: k, Quiet: true, Opaque: uint32(i),
		}); err != nil {
			return nil, err
		}
	}
	if err := protocol.WriteBinaryCommand(c.w, &protocol.Command{Op: protocol.OpNoop, Opaque: ^uint32(0)}); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	for {
		rep, opcode, err := protocol.ReadBinaryReply(c.r)
		if err != nil {
			return nil, err
		}
		if opcode == 0x0a { // noop: end of batch
			return out, nil
		}
		if rep.Status == protocol.StatusOK && int(rep.Opaque) < len(keys) {
			out[string(keys[rep.Opaque])] = rep.Value
		}
	}
}

// One sentinel per status a server can answer with, so callers can tell
// outcomes apart with errors.Is and a miss costs no allocation. Each
// reads "memcached: " and the status's text.
var (
	ErrNotFound       = sentinel(protocol.StatusKeyNotFound)
	ErrExists         = sentinel(protocol.StatusKeyExists)
	ErrValueTooLarge  = sentinel(protocol.StatusValueTooLarge)
	ErrInvalidArgs    = sentinel(protocol.StatusInvalidArgs)
	ErrNotStored      = sentinel(protocol.StatusNotStored)
	ErrNonNumeric     = sentinel(protocol.StatusNonNumeric)
	ErrUnknownCommand = sentinel(protocol.StatusUnknownCommand)
	ErrOutOfMemory    = sentinel(protocol.StatusOutOfMemory)
	ErrTempFailure    = sentinel(protocol.StatusTempFailure)
)

// statusErrs is filled by sentinel while the variables above initialise.
var statusErrs = map[protocol.Status]error{}

func sentinel(s protocol.Status) error {
	statusErrs[s] = fmt.Errorf("memcached: %v", s)
	return statusErrs[s]
}

// statusErr is the error for a reply status other than OK: its sentinel,
// or a fresh error for a status this client has no name for.
func statusErr(s protocol.Status) error {
	if err, ok := statusErrs[s]; ok {
		return err
	}
	return fmt.Errorf("memcached: %v", s)
}
