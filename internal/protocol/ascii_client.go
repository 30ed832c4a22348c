package protocol

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// Client-side ASCII parsing: decode the server's reply to a command.

// WriteASCIICommand renders a command in the ASCII protocol.
func WriteASCIICommand(w *bufio.Writer, c *Command) error {
	switch c.Op {
	case OpGet:
		_, err := fmt.Fprintf(w, "gets %s\r\n", c.Key)
		return err
	case OpSet, OpAdd, OpReplace, OpAppend, OpPrepend:
		names := map[Op]string{OpSet: "set", OpAdd: "add", OpReplace: "replace",
			OpAppend: "append", OpPrepend: "prepend"}
		suffix := ""
		if c.Quiet {
			suffix = " noreply"
		}
		fmt.Fprintf(w, "%s %s %d %d %d%s\r\n", names[c.Op], c.Key, c.Flags, c.Exptime, len(c.Value), suffix)
		w.Write(c.Value)
		_, err := w.WriteString("\r\n")
		return err
	case OpCAS:
		fmt.Fprintf(w, "cas %s %d %d %d %d\r\n", c.Key, c.Flags, c.Exptime, len(c.Value), c.CAS)
		w.Write(c.Value)
		_, err := w.WriteString("\r\n")
		return err
	case OpDelete:
		_, err := fmt.Fprintf(w, "delete %s\r\n", c.Key)
		return err
	case OpIncr:
		_, err := fmt.Fprintf(w, "incr %s %d\r\n", c.Key, c.Delta)
		return err
	case OpDecr:
		_, err := fmt.Fprintf(w, "decr %s %d\r\n", c.Key, c.Delta)
		return err
	case OpTouch:
		_, err := fmt.Fprintf(w, "touch %s %d\r\n", c.Key, c.Exptime)
		return err
	case OpGAT:
		_, err := fmt.Fprintf(w, "gat %d %s\r\n", c.Exptime, c.Key)
		return err
	case OpFlushAll:
		_, err := w.WriteString("flush_all\r\n")
		return err
	case OpStats:
		_, err := w.WriteString("stats\r\n")
		return err
	case OpVersion:
		_, err := w.WriteString("version\r\n")
		return err
	case OpQuit:
		_, err := w.WriteString("quit\r\n")
		return err
	default:
		return fmt.Errorf("protocol: op %v has no ASCII encoding", c.Op)
	}
}

// ReadASCIIValue reads the next line of a retrieval reply: the END that
// closes it (end is true), or a VALUE line, whose fields and data block
// it checks and stores into rep — key, flags, CAS generation if given,
// and value, all in memory of their own. The announced length is trusted
// no further than MaxBodyLen.
func ReadASCIIValue(r *bufio.Reader, rep *Reply) (end bool, err error) {
	line, err := readLine(r)
	if err != nil {
		return false, err
	}
	if string(line) == "END" {
		return true, nil
	}
	var fv [5][]byte
	f, _ := fields(fv[:0], line, len(fv))
	if len(f) < 4 || string(f[0]) != "VALUE" {
		return false, fmt.Errorf("protocol: unexpected get reply %q", line)
	}
	// A flags (or CAS) field that does not parse is a corrupt or
	// malformed server reply; swallowing the error would silently
	// yield flags=0 (or CAS=0) and feed garbage to the caller.
	flags, err := parseU32(f[2])
	if err != nil {
		return false, fmt.Errorf("protocol: bad VALUE flags in %q", line)
	}
	n, err := parseU64(f[3])
	if err != nil || n > MaxBodyLen {
		return false, fmt.Errorf("protocol: bad VALUE length in %q", line)
	}
	if len(f) == 5 {
		if rep.CAS, err = parseU64(f[4]); err != nil {
			return false, fmt.Errorf("protocol: bad VALUE cas in %q", line)
		}
	}
	data := make([]byte, n+2)
	if _, err := io.ReadFull(r, data); err != nil {
		return false, err
	}
	if data[n] != '\r' || data[n+1] != '\n' {
		return false, fmt.Errorf("protocol: VALUE data block not CRLF terminated")
	}
	// readLine's line is already a copy, so the key may alias it.
	rep.Status, rep.Key, rep.Flags, rep.Value = StatusOK, f[1], uint32(flags), data[:n]
	return false, nil
}

// ReadASCIIReply parses the server's ASCII reply to command c.
func ReadASCIIReply(r *bufio.Reader, c *Command) (*Reply, error) {
	if c.Quiet {
		return &Reply{Status: StatusOK}, nil
	}
	switch c.Op {
	case OpGet, OpGAT:
		rep := &Reply{Status: StatusKeyNotFound}
		for {
			end, err := ReadASCIIValue(r, rep)
			if err != nil {
				return nil, err
			}
			if end {
				return rep, nil
			}
		}
	case OpSet, OpAdd, OpReplace, OpCAS, OpAppend, OpPrepend:
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
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
		default:
			return nil, fmt.Errorf("protocol: store reply %q", line)
		}
	case OpDelete:
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if string(line) == "DELETED" {
			return &Reply{Status: StatusOK}, nil
		}
		return &Reply{Status: StatusKeyNotFound}, nil
	case OpIncr, OpDecr:
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if v, perr := strconv.ParseUint(string(line), 10, 64); perr == nil {
			return &Reply{Status: StatusOK, Numeric: v}, nil
		}
		if string(line) == "NOT_FOUND" {
			return &Reply{Status: StatusKeyNotFound}, nil
		}
		return &Reply{Status: StatusNonNumeric}, nil
	case OpTouch:
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if string(line) == "TOUCHED" {
			return &Reply{Status: StatusOK}, nil
		}
		return &Reply{Status: StatusKeyNotFound}, nil
	case OpFlushAll:
		if _, err := readLine(r); err != nil {
			return nil, err
		}
		return &Reply{Status: StatusOK}, nil
	case OpStats:
		rep := &Reply{Status: StatusOK}
		for {
			line, err := readLine(r)
			if err != nil {
				return nil, err
			}
			if bytes.Equal(line, []byte("END")) {
				return rep, nil
			}
			fields := bytes.SplitN(line, []byte(" "), 3)
			if len(fields) == 3 && string(fields[0]) == "STAT" {
				rep.Stats = append(rep.Stats, [2]string{string(fields[1]), string(fields[2])})
			}
		}
	case OpVersion:
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		rep := &Reply{Status: StatusOK}
		if bytes.HasPrefix(line, []byte("VERSION ")) {
			rep.Version = string(line[8:])
		}
		return rep, nil
	default:
		return nil, fmt.Errorf("protocol: no ASCII reply for op %v", c.Op)
	}
}
