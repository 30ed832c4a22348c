package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// maxPipeline bounds how many pipelined commands one dispatch carries; a
// deeper client pipeline simply splits into several runs.
const maxPipeline = 64

// window is the size of a connection's read (and write) buffer. Frames
// that fit are decoded where they lie in it; it also bounds an ASCII
// command line.
const window = 64 << 10

// ErrLineTooLong refuses an ASCII command line that does not end inside
// the reader's window (or any frame whose length does not show there).
var ErrLineTooLong = errors.New("line too long")

// A decoder decodes the frame at the head of b into c and returns the
// frame's length n. If 0 < n <= len(b) the frame was whole and c is filled
// in, its Key, Keys and Value aliasing b (c's Keys array is reused). If
// n > len(b) the frame is n bytes long and not all of it is there; if
// n == 0 its length does not show yet. In both cases c holds nothing of
// use.
type decoder func(c *Command, b []byte) (n int, err error)

// await blocks until the stream's next frame is there and decodes it into
// c: where it lies in r's window, returning its length for the caller to
// Discard once done with c — or, if it is wider than the window, from a
// buffer of its own, returning 0. block, if not nil, runs once before the
// first read that has to wait for the peer.
func await(r *bufio.Reader, c *Command, decode decoder, block func() error) (int, error) {
	for need := 1; ; {
		if block != nil && r.Buffered() < need {
			if err := block(); err != nil {
				return 0, err
			}
			block = nil
		}
		if need > r.Size() {
			frame := make([]byte, need)
			if _, err := io.ReadFull(r, frame); err != nil {
				return 0, err
			}
			_, err := decode(c, frame)
			return 0, err
		}
		if _, err := r.Peek(need); err != nil {
			if err == io.EOF && r.Buffered() > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		win, _ := r.Peek(r.Buffered())
		n, err := decode(c, win)
		switch {
		case err != nil, 0 < n && n <= len(win):
			return n, err
		case n > 0:
			need = n
		case len(win) < r.Size():
			need = len(win) + 1
		default:
			return 0, ErrLineTooLong
		}
	}
}

// readOwned is the exported readers' body: a fresh command that owns its
// bytes, whatever the frame's size and the reader's.
func readOwned(r *bufio.Reader, decode decoder) (*Command, error) {
	c := new(Command)
	n, err := await(r, c, decode, nil)
	if err == nil && n > 0 { // c borrows the window: move the frame out
		frame := make([]byte, n)
		io.ReadFull(r, frame) //nolint:errcheck // n bytes are buffered
		_, err = decode(c, frame)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ServeConn is the read loop of every socket front end — the baseline
// server, the hybrid bookkeeper and the cluster proxy: sniff the protocol
// (binary frames start with 0x80), wait until the next frame lies whole in
// the read window, decode it and every further frame that is already whole
// there, and hand the run to dispatch, which writes the replies to w in
// command order. Only then is the window released.
//
// The commands of a run borrow the window: their Key, Keys and Value are
// valid until dispatch returns and not after — the next read slides other
// bytes under them — so dispatch copies what it keeps. A frame wider than
// the window is read into a buffer of its own (and is then a run's first
// command); a trailing partial frame opens the next run.
//
// Replies are flushed before any read that has to wait for the client, so
// a pipeline's replies leave in one write and a client that stops
// mid-frame still gets the replies it is owed. idle, when positive, bounds
// each such wait; dispatch and the reply writes are not charged against it.
//
// The loop returns when the client quits or hangs up, silently. A command
// that does not parse also ends the connection, after the replies of the
// commands before it and, in ASCII, a CLIENT_ERROR line.
func ServeConn(c net.Conn, idle time.Duration, dispatch func(w *bufio.Writer, binary bool, cmds []Command)) {
	r := bufio.NewReaderSize(c, window)
	w := bufio.NewWriterSize(c, window)
	block := func() error {
		if idle > 0 {
			c.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck
		}
		return w.Flush()
	}
	block() //nolint:errcheck // nothing to flush yet
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	binary, decode := false, decoder(decodeASCII)
	if first[0] == binReqMagic {
		binary, decode = true, decodeBinary
	}
	var slots [maxPipeline]Command // reused run after run
	for {
		n, used := 0, 0
		m, err := await(r, &slots[0], decode, block)
		if err == nil {
			win, _ := r.Peek(r.Buffered())
			for n, used = 1, m; n < maxPipeline && slots[n-1].Op != OpQuit; n++ {
				m, err = decode(&slots[n], win[used:])
				if err != nil || m == 0 || m > len(win)-used {
					break
				}
				used += m
			}
		}
		quit := n > 0 && slots[n-1].Op == OpQuit
		if quit {
			n--
		}
		if n > 0 {
			dispatch(w, binary, slots[:n])
		}
		r.Discard(used) //nolint:errcheck // used bytes were peeked
		if err != nil && !binary && !hangup(err) {
			fmt.Fprintf(w, "CLIENT_ERROR %v\r\n", err)
		}
		if quit || err != nil {
			w.Flush()
			return
		}
	}
}

// hangup reports whether a read error is the transport ending — a clean
// or mid-command EOF, an idle timeout, a closed connection — as opposed
// to bytes that arrived and did not parse.
func hangup(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne)
}
