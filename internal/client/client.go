// Package client is the socket transport for the baseline server: the
// wire half of libmemcached. It speaks either wire protocol over a single
// connection: one command per round trip (Do), or many in one write
// (Pipeline) — the paper notes that "much of the client library is devoted
// to batching of requests" precisely because each round trip is so
// expensive. The key-value verbs over it are memcached.SocketSession's.
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

// Check refuses a command the connection's protocol cannot carry (over
// ASCII, protocol.ErrBadKey). Do and Pipeline check before they write a
// byte, so a refusal leaves the connection open.
func (c *Client) Check(cmd *protocol.Command) error {
	if c.proto == ASCII {
		return protocol.CheckASCIIKeys(cmd)
	}
	return nil
}

// Do sends one command and reads its reply. A failure of the transport
// or of the reply's parse closes the connection (see Pipeline).
func (c *Client) Do(cmd *protocol.Command) (*protocol.Reply, error) {
	if err := c.Check(cmd); err != nil {
		return nil, err
	}
	c.armDeadline()
	err := c.write(cmd)
	if err == nil {
		err = c.w.Flush()
	}
	var rep *protocol.Reply
	if err == nil {
		rep, err = c.read(cmd)
	}
	if err != nil {
		return nil, c.fail(err)
	}
	return rep, nil
}

// Pipeline sends cmds in one write and one flush, then reads their
// replies in order into reps, which must have room for one per command.
// No command may be quiet: each must be answered. A failure of the
// transport, or a reply that does not parse, closes the connection, since
// the replies still in flight would otherwise answer the next call;
// Reconnect starts afresh.
func (c *Client) Pipeline(cmds []protocol.Command, reps []*protocol.Reply) error {
	for i := range cmds {
		if err := c.Check(&cmds[i]); err != nil {
			return err
		}
	}
	c.armDeadline()
	for i := range cmds {
		if err := c.write(&cmds[i]); err != nil {
			return c.fail(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(err)
	}
	for i := range cmds {
		rep, err := c.read(&cmds[i])
		if err != nil {
			return c.fail(err)
		}
		reps[i] = rep
	}
	return nil
}

// fail closes the connection after err left it out of step, and returns err.
func (c *Client) fail(err error) error {
	c.conn.Close() //nolint:errcheck
	return err
}

func (c *Client) write(cmd *protocol.Command) error {
	if c.proto == Binary {
		return protocol.WriteBinaryCommand(c.w, cmd)
	}
	return protocol.WriteASCIICommand(c.w, cmd)
}

func (c *Client) read(cmd *protocol.Command) (*protocol.Reply, error) {
	if c.proto == ASCII {
		return protocol.ReadASCIIReply(c.r, cmd)
	}
	if cmd.Op == protocol.OpStats {
		return c.readBinaryStats()
	}
	rep, _, err := protocol.ReadBinaryReply(c.r)
	return rep, err
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
	rep, err := c.Do(&protocol.Command{Op: protocol.OpGet, Key: key})
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
	rep, err := c.Do(&protocol.Command{Op: protocol.OpSet, Key: key, Value: value, Flags: flags, Exptime: exptime})
	if err == nil && rep.Status != protocol.StatusOK {
		err = statusErr(rep.Status)
	}
	return err
}

// ErrNotFound is Get's miss, one error so that a miss costs no
// allocation. Like every status error it reads "memcached: " and the
// status's text.
var ErrNotFound = fmt.Errorf("memcached: %v", protocol.StatusKeyNotFound)

// statusErr is the error for a reply status other than OK.
func statusErr(s protocol.Status) error {
	if s == protocol.StatusKeyNotFound {
		return ErrNotFound
	}
	return fmt.Errorf("memcached: %v", s)
}
