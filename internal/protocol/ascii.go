package protocol

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// The ASCII protocol: line-oriented commands with CRLF terminators and
// out-of-band data blocks for storage commands. This is the protocol the
// paper notes "loses its attraction" without a network interface — kept
// for the baseline and for the hybrid remote mode.

// ReadASCIICommand reads one command (and its data block, for storage
// commands) into a buffer of its own and decodes it: the command owns its
// bytes. A command line must end within r's buffer.
func ReadASCIICommand(r *bufio.Reader) (*Command, error) { return readOwned(r, decodeASCII) }

// isSpace reports the ASCII white space that separates a line's fields.
func isSpace(b byte) bool { return b == ' ' || '\t' <= b && b <= '\r' }

// fields appends up to max of line's fields to dst, cut where they lie,
// and returns what is left of the line.
func fields(dst [][]byte, line []byte, max int) ([][]byte, []byte) {
	for ; max > 0; max-- {
		i := 0
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if i == j {
			return dst, nil
		}
		dst, line = append(dst, line[i:j]), line[j:]
	}
	return dst, line
}

var storeOps = map[string]Op{"set": OpSet, "add": OpAdd, "replace": OpReplace,
	"append": OpAppend, "prepend": OpPrepend, "cas": OpCAS}

// decodeASCII is the ASCII protocol's decoder (see decoder): one command
// line and, for storage commands, the data block it announces. Fields are
// cut where they lie; nothing is copied.
func decodeASCII(c *Command, b []byte) (int, error) {
	n := bytes.IndexByte(b, '\n') + 1
	if n == 0 {
		return 0, nil
	}
	// A name and the six arguments no command looks past; a get's keys,
	// any number of them, go to c.Keys instead.
	var argv [7][]byte
	f, rest := fields(argv[:0], b[:n], 2)
	if len(f) == 0 {
		return 0, fmt.Errorf("protocol: empty command line")
	}
	name := f[0]
	*c = Command{Keys: c.Keys[:0]}
	if string(name) == "get" || string(name) == "gets" {
		if len(f) < 2 {
			return 0, fmt.Errorf("protocol: get without key")
		}
		c.Op, c.Key = OpGet, f[1]
		c.Keys, _ = fields(c.Keys, rest, math.MaxInt)
		return n, nil
	}
	f, _ = fields(f, rest, 5)
	args := f[1:]
	switch string(name) {
	case "set", "add", "replace", "append", "prepend", "cas":
		c.Op = storeOps[string(name)]
		want := 4
		if c.Op == OpCAS {
			want = 5
		}
		if len(args) < want {
			return 0, fmt.Errorf("protocol: %s needs %d arguments", name, want)
		}
		// flags and exptime are range-checked to their wire widths: a
		// 64-bit parse followed by a uint32() conversion would silently
		// wrap out-of-range values (set k 4294967296 0 1 storing flags=0)
		// instead of rejecting the command line.
		flags, err1 := parseU32(args[1])
		exp, err2 := parseExptime(args[2])
		size, err3 := parseU64(args[3])
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("protocol: bad command line format for %s", name)
		}
		if err3 != nil || size > MaxBodyLen {
			return 0, fmt.Errorf("protocol: bad %s arguments", name)
		}
		c.Key, c.Flags, c.Exptime = args[0], uint32(flags), exp
		if c.Op == OpCAS {
			cas, err := parseU64(args[4])
			if err != nil {
				return 0, fmt.Errorf("protocol: bad cas value")
			}
			c.CAS = cas
		}
		c.Quiet = len(args) > want && string(args[want]) == "noreply"
		end := n + int(size)
		if len(b) < end+2 {
			return end + 2, nil
		}
		if b[end] != '\r' || b[end+1] != '\n' {
			return 0, fmt.Errorf("protocol: data block not CRLF terminated")
		}
		c.Value = b[n:end]
		return end + 2, nil
	case "delete":
		if len(args) < 1 {
			return 0, fmt.Errorf("protocol: delete without key")
		}
		c.Op, c.Key = OpDelete, args[0]
		c.Quiet = len(args) > 1 && string(args[len(args)-1]) == "noreply"
	case "incr", "decr":
		if len(args) < 2 {
			return 0, fmt.Errorf("protocol: %s needs key and amount", name)
		}
		d, err := parseU64(args[1])
		if err != nil {
			return 0, fmt.Errorf("protocol: bad %s amount", name)
		}
		c.Op, c.Key, c.Delta = OpIncr, args[0], d
		if string(name) == "decr" {
			c.Op = OpDecr
		}
		c.Quiet = len(args) > 2 && string(args[2]) == "noreply"
	case "gat":
		if len(args) < 2 {
			return 0, fmt.Errorf("protocol: gat needs exptime and key")
		}
		exp, err := parseExptime(args[0])
		if err != nil {
			return 0, fmt.Errorf("protocol: bad gat exptime")
		}
		c.Op, c.Key, c.Exptime = OpGAT, args[1], exp
	case "touch":
		if len(args) < 2 {
			return 0, fmt.Errorf("protocol: touch needs key and exptime")
		}
		exp, err := parseExptime(args[1])
		if err != nil {
			return 0, fmt.Errorf("protocol: bad touch exptime")
		}
		c.Op, c.Key, c.Exptime = OpTouch, args[0], exp
		c.Quiet = len(args) > 2 && string(args[2]) == "noreply"
	case "flush_all":
		// flush_all [delay] [noreply]
		c.Op = OpFlushAll
		if len(args) > 0 && string(args[len(args)-1]) == "noreply" {
			c.Quiet, args = true, args[:len(args)-1]
		}
		if len(args) > 0 {
			exp, err := parseExptime(args[0])
			if err != nil {
				return 0, fmt.Errorf("protocol: bad flush_all delay")
			}
			c.Exptime = exp
		}
	case "stats":
		c.Op = OpStats
		if len(args) > 0 {
			c.StatsArg = string(args[0])
		}
	case "version":
		c.Op = OpVersion
	case "quit":
		c.Op = OpQuit
	default:
		return 0, fmt.Errorf("protocol: unknown command %q", name)
	}
	return n, nil
}

// WriteASCIIReply renders the reply for a command.
func WriteASCIIReply(w *bufio.Writer, c *Command, rep *Reply) error {
	if c.Quiet {
		return nil // noreply
	}
	if rep.Status == StatusTempFailure {
		// A shard-down condition is not a miss: even reads report
		// SERVER_ERROR (never a bare END) so clients can tell "key
		// absent" from "key's shard temporarily unavailable — retry".
		msg := rep.Message
		if msg == "" {
			msg = "temporary failure"
		}
		_, err := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", msg)
		return err
	}
	switch c.Op {
	case OpGet, OpGAT:
		if rep.Status == StatusOK {
			WriteASCIIValue(w, c.Key, rep.Flags, rep.Value, rep.CAS)
		}
		_, err := w.WriteString("END\r\n")
		return err
	case OpSet, OpAdd, OpReplace, OpCAS, OpAppend, OpPrepend:
		switch rep.Status {
		case StatusOK:
			_, err := w.WriteString("STORED\r\n")
			return err
		case StatusKeyExists:
			if c.Op == OpCAS {
				_, err := w.WriteString("EXISTS\r\n")
				return err
			}
			_, err := w.WriteString("NOT_STORED\r\n")
			return err
		case StatusKeyNotFound:
			if c.Op == OpCAS {
				_, err := w.WriteString("NOT_FOUND\r\n")
				return err
			}
			_, err := w.WriteString("NOT_STORED\r\n")
			return err
		case StatusNotStored:
			_, err := w.WriteString("NOT_STORED\r\n")
			return err
		default:
			_, err := fmt.Fprintf(w, "SERVER_ERROR %v\r\n", rep.Status)
			return err
		}
	case OpDelete:
		if rep.Status == StatusOK {
			_, err := w.WriteString("DELETED\r\n")
			return err
		}
		_, err := w.WriteString("NOT_FOUND\r\n")
		return err
	case OpIncr, OpDecr:
		switch rep.Status {
		case StatusOK:
			_, err := w.Write(append(strconv.AppendUint(spare(w, 22), rep.Numeric, 10), '\r', '\n'))
			return err
		case StatusKeyNotFound:
			_, err := w.WriteString("NOT_FOUND\r\n")
			return err
		default:
			_, err := fmt.Fprintf(w, "%v\r\n", rep.Status)
			return err
		}
	case OpTouch:
		if rep.Status == StatusOK {
			_, err := w.WriteString("TOUCHED\r\n")
			return err
		}
		_, err := w.WriteString("NOT_FOUND\r\n")
		return err
	case OpFlushAll:
		if rep.Status == StatusInvalidArgs { // a delayed flush, refused
			_, err := fmt.Fprintf(w, "%v\r\n", rep.Status)
			return err
		}
		_, err := w.WriteString("OK\r\n")
		return err
	case OpStats:
		for _, kv := range rep.Stats {
			fmt.Fprintf(w, "STAT %s %s\r\n", kv[0], kv[1])
		}
		_, err := w.WriteString("END\r\n")
		return err
	case OpVersion:
		_, err := fmt.Fprintf(w, "VERSION %s\r\n", rep.Version)
		return err
	default:
		_, err := w.WriteString("ERROR\r\n")
		return err
	}
}

// spare returns w's own spare buffer, flushed first if it had no room
// for n bytes (a failure of that flush resurfaces at the next write): what
// is appended there and written next costs no allocation and no copy.
func spare(w *bufio.Writer, n int) []byte {
	if w.Available() < n {
		w.Flush() //nolint:errcheck
	}
	return w.AvailableBuffer()
}

// WriteASCIIValue renders one block of a retrieval reply: the VALUE line
// and the data. The END that closes the reply is the caller's.
func WriteASCIIValue(w *bufio.Writer, key []byte, flags uint32, value []byte, cas uint64) {
	// "VALUE ", a key, three numbers of at most 20 digits, separators.
	b := append(spare(w, 6+MaxKeyLen+3*21+2), "VALUE "...)
	b = append(append(b, key...), ' ')
	b = append(strconv.AppendUint(b, uint64(flags), 10), ' ')
	b = append(strconv.AppendUint(b, uint64(len(value)), 10), ' ')
	b = append(strconv.AppendUint(b, cas, 10), '\r', '\n')
	w.Write(b)
	w.Write(value)
	w.WriteString("\r\n")
}

func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func parseU64(b []byte) (uint64, error) { return strconv.ParseUint(string(b), 10, 64) }

// parseU32 parses a field whose wire width is 32 bits (flags); values that
// do not fit are a protocol error, not a silent truncation.
func parseU32(b []byte) (uint64, error) { return strconv.ParseUint(string(b), 10, 32) }

// parseExptime parses an expiry field. The wire width is 32 bits signed
// (memcached's rel_time/absolute-unixtime split lives in that range);
// anything wider is a malformed command line.
func parseExptime(b []byte) (int64, error) {
	v, err := strconv.ParseInt(string(b), 10, 32)
	return v, err
}
