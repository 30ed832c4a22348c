package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Client-side ASCII parsing: decode the server's reply to a command.

// ErrBadKey refuses a key the ASCII protocol cannot carry: past MaxKeyLen,
// or holding a space or control byte, which would end the line early and
// run the rest as a command (libmemcached's BAD_KEY_PROVIDED).
var ErrBadKey = errors.New("protocol: key not valid in the ASCII protocol")

// CheckASCIIKeys returns ErrBadKey if a key of c, the multi-key line's
// included, cannot travel in an ASCII command line.
func CheckASCIIKeys(c *Command) error {
	for i := 0; i <= len(c.Keys); i++ {
		if k := c.KeyAt(i); len(k) > MaxKeyLen || slices.ContainsFunc(k, func(b byte) bool { return b <= ' ' || b == 0x7f }) {
			return ErrBadKey
		}
	}
	return nil
}

// WriteASCIICommand renders a command in the ASCII protocol, or refuses it
// with ErrBadKey before writing a byte.
func WriteASCIICommand(w *bufio.Writer, c *Command) error {
	if err := CheckASCIIKeys(c); err != nil {
		return err
	}
	switch c.Op {
	case OpGet:
		w.WriteString("gets")
		for i := 0; i <= len(c.Keys); i++ {
			w.WriteByte(' ')
			w.Write(c.KeyAt(i))
		}
		_, err := w.WriteString("\r\n")
		return err
	case OpSet, OpAdd, OpReplace, OpAppend, OpPrepend, OpCAS:
		fmt.Fprintf(w, "%v %s %d %d %d", c.Op, c.Key, c.Flags, c.Exptime, len(c.Value))
		if c.Op == OpCAS {
			fmt.Fprintf(w, " %d", c.CAS)
		}
		if c.Quiet {
			w.WriteString(" noreply")
		}
		w.WriteString("\r\n")
		w.Write(c.Value)
		_, err := w.WriteString("\r\n")
		return err
	case OpDelete:
		_, err := fmt.Fprintf(w, "delete %s\r\n", c.Key)
		return err
	case OpIncr, OpDecr:
		_, err := fmt.Fprintf(w, "%v %s %d\r\n", c.Op, c.Key, c.Delta)
		return err
	case OpTouch:
		_, err := fmt.Fprintf(w, "touch %s %d\r\n", c.Key, c.Exptime)
		return err
	case OpGAT:
		_, err := fmt.Fprintf(w, "gat %d %s\r\n", c.Exptime, c.Key)
		return err
	case OpFlushAll, OpStats, OpVersion, OpQuit:
		w.WriteString(c.Op.String())
		_, err := w.WriteString("\r\n")
		return err
	default:
		return fmt.Errorf("protocol: op %v has no ASCII encoding", c.Op)
	}
}

// readValue reads the VALUE block that line opens: it checks the line's
// fields and the data block, and stores into rep the key, flags, CAS
// generation if given, and value, all in memory of their own. The
// announced length is trusted no further than MaxBodyLen.
func readValue(r *bufio.Reader, line []byte, rep *Reply) error {
	var fv [5][]byte
	f, _ := fields(fv[:0], line, len(fv))
	if len(f) < 4 || string(f[0]) != "VALUE" {
		return fmt.Errorf("protocol: unexpected get reply %q", line)
	}
	// A flags (or CAS) field that does not parse is a corrupt or
	// malformed server reply; swallowing the error would silently
	// yield flags=0 (or CAS=0) and feed garbage to the caller.
	flags, err := parseU32(f[2])
	if err != nil {
		return fmt.Errorf("protocol: bad VALUE flags in %q", line)
	}
	n, err := parseU64(f[3])
	if err != nil || n > MaxBodyLen {
		return fmt.Errorf("protocol: bad VALUE length in %q", line)
	}
	if len(f) == 5 {
		if rep.CAS, err = parseU64(f[4]); err != nil {
			return fmt.Errorf("protocol: bad VALUE cas in %q", line)
		}
	}
	data := make([]byte, n+2)
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	if data[n] != '\r' || data[n+1] != '\n' {
		return fmt.Errorf("protocol: VALUE data block not CRLF terminated")
	}
	// readLine's line is already a copy, so the key may alias it.
	rep.Status, rep.Key, rep.Flags, rep.Value = StatusOK, f[1], uint32(flags), data[:n]
	return nil
}

// errorReply is the reply that line stands for when a server answers
// command c with an error instead of c's own reply, or nil: ERROR; a
// CLIENT_ERROR, except that incr and decr's refusal of a non-numeric
// value keeps its own status; or a SERVER_ERROR, whose text the reply
// carries (out of memory keeps its own status). Every op reads them alike,
// so a server's failure never passes for a miss or a refusal.
func errorReply(c *Command, line []byte) *Reply {
	switch {
	case string(line) == "ERROR":
		return &Reply{Status: StatusUnknownCommand}
	case bytes.HasPrefix(line, []byte("CLIENT_ERROR")):
		if (c.Op == OpIncr || c.Op == OpDecr) && string(line) == StatusNonNumeric.String() {
			return &Reply{Status: StatusNonNumeric}
		}
		return &Reply{Status: StatusInvalidArgs, Message: string(bytes.TrimSpace(line[len("CLIENT_ERROR"):]))}
	case bytes.HasPrefix(line, []byte("SERVER_ERROR")):
		if string(line) == StatusOutOfMemory.String() {
			return &Reply{Status: StatusOutOfMemory}
		}
		return &Reply{Status: StatusTempFailure, Message: string(bytes.TrimSpace(line[len("SERVER_ERROR"):]))}
	}
	return nil
}

// ReadASCIIReply parses the server's ASCII reply to command c.
func ReadASCIIReply(r *bufio.Reader, c *Command) (*Reply, error) {
	if c.Quiet {
		return &Reply{Status: StatusOK}, nil
	}
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if rep := errorReply(c, line); rep != nil {
		return rep, nil
	}
	switch c.Op {
	case OpGet, OpGAT:
		rep := &Reply{Status: StatusKeyNotFound}
		for string(line) != "END" {
			if err := readValue(r, line, rep); err != nil {
				return nil, err
			}
			if line, err = readLine(r); err != nil {
				return nil, err
			}
		}
		return rep, nil
	case OpSet, OpAdd, OpReplace, OpCAS, OpAppend, OpPrepend:
		switch string(line) {
		case "STORED":
			return &Reply{Status: StatusOK}, nil
		case "NOT_STORED":
			if c.Op == OpAdd {
				return &Reply{Status: StatusKeyExists}, nil
			}
			return &Reply{Status: StatusKeyNotFound}, nil
		case "EXISTS":
			return &Reply{Status: StatusKeyExists}, nil
		case "NOT_FOUND":
			return &Reply{Status: StatusKeyNotFound}, nil
		}
	case OpDelete, OpTouch:
		switch string(line) {
		case "DELETED", "TOUCHED":
			return &Reply{Status: StatusOK}, nil
		case "NOT_FOUND":
			return &Reply{Status: StatusKeyNotFound}, nil
		}
	case OpIncr, OpDecr:
		if v, perr := strconv.ParseUint(string(line), 10, 64); perr == nil {
			return &Reply{Status: StatusOK, Numeric: v}, nil
		}
		if string(line) == "NOT_FOUND" {
			return &Reply{Status: StatusKeyNotFound}, nil
		}
	case OpFlushAll:
		if string(line) == "OK" {
			return &Reply{Status: StatusOK}, nil
		}
	case OpStats:
		rep := &Reply{Status: StatusOK}
		for !bytes.Equal(line, []byte("END")) {
			fields := bytes.SplitN(line, []byte(" "), 3)
			if len(fields) == 3 && string(fields[0]) == "STAT" {
				rep.Stats = append(rep.Stats, [2]string{string(fields[1]), string(fields[2])})
			}
			if line, err = readLine(r); err != nil {
				return nil, err
			}
		}
		return rep, nil
	case OpVersion:
		rep := &Reply{Status: StatusOK}
		if bytes.HasPrefix(line, []byte("VERSION ")) {
			rep.Version = string(line[8:])
		}
		return rep, nil
	default:
		return nil, fmt.Errorf("protocol: no ASCII reply for op %v", c.Op)
	}
	return nil, fmt.Errorf("protocol: %v reply %q", c.Op, line)
}
