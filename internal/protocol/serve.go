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

// ServeConn is the read loop of every socket front end — the baseline
// server, the hybrid bookkeeper and the cluster proxy: sniff the protocol
// (binary frames start with 0x80), read one command (blocking), greedily
// drain whatever else the client already pipelined, and hand the run to
// dispatch, which writes the replies to w in command order; flush once
// nothing more is buffered, so a pipeline's replies leave in one write.
//
// idle, when positive, bounds each blocking wait for (and read of) the
// next command; the deadline is cleared once the command is in hand, so
// dispatch and the reply write are not charged against idle time.
//
// The loop returns when the client quits or hangs up, silently. A command
// that does not parse also ends the connection, after the replies of the
// commands before it and, in ASCII, a CLIENT_ERROR line.
func ServeConn(c net.Conn, idle time.Duration, dispatch func(w *bufio.Writer, binary bool, cmds []*Command)) {
	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)
	// idleClock starts (or stops) the idle deadline on the next read.
	idleClock := func(on bool) {
		if idle <= 0 {
			return
		}
		var t time.Time
		if on {
			t = time.Now().Add(idle)
		}
		c.SetReadDeadline(t) //nolint:errcheck
	}
	idleClock(true)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	binary := first[0] == binReqMagic
	read := ReadASCIICommand
	if binary {
		read = ReadBinaryCommand
	}
	cmds := make([]*Command, 0, maxPipeline)
	for {
		cmds = cmds[:0]
		idleClock(true)
		cmd, err := read(r)
		idleClock(false)
		quit := false
		for err == nil {
			if quit = cmd.Op == OpQuit; quit {
				break
			}
			cmds = append(cmds, cmd)
			if len(cmds) == maxPipeline || r.Buffered() == 0 {
				break
			}
			cmd, err = read(r)
		}
		if len(cmds) > 0 {
			dispatch(w, binary, cmds)
		}
		if err != nil && !binary && !hangup(err) {
			fmt.Fprintf(w, "CLIENT_ERROR %v\r\n", err)
		}
		if quit || err != nil {
			w.Flush()
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
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
