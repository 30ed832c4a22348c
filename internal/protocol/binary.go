package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The memcached binary protocol: a fixed 24-byte header followed by
// extras, key, and value.
//
//	0: magic (0x80 request / 0x81 response)
//	1: opcode
//	2: key length (big endian u16)
//	4: extras length
//	5: data type (0)
//	6: vbucket id (request) / status (response), big endian u16
//	8: total body length, big endian u32
//	12: opaque
//	16: cas
const (
	binReqMagic  = 0x80
	binResMagic  = 0x81
	binHeaderLen = 24
)

// Binary opcodes (subset used by memcached clients).
const (
	binGet     = 0x00
	binSet     = 0x01
	binAdd     = 0x02
	binReplace = 0x03
	binDelete  = 0x04
	binIncr    = 0x05
	binDecr    = 0x06
	binQuit    = 0x07
	binFlush   = 0x08
	binGetQ    = 0x09
	binNoop    = 0x0a
	binVersion = 0x0b
	binGetK    = 0x0c
	binGetKQ   = 0x0d
	binAppend  = 0x0e
	binPrepend = 0x0f
	binStat    = 0x10
	binSetQ    = 0x11
	binTouch   = 0x1c
	binGAT     = 0x1d
)

// binToOp decodes a request opcode; known is false for the gaps.
var binToOp = [binGAT + 1]struct {
	op           Op
	quiet, known bool
}{
	binGet: {OpGet, false, true}, binGetQ: {OpGet, true, true},
	binGetK: {OpGet, false, true}, binGetKQ: {OpGet, true, true},
	binSet: {OpSet, false, true}, binSetQ: {OpSet, true, true},
	binAdd: {OpAdd, false, true}, binReplace: {OpReplace, false, true},
	binDelete: {OpDelete, false, true},
	binIncr:   {OpIncr, false, true}, binDecr: {OpDecr, false, true},
	binQuit: {OpQuit, false, true}, binFlush: {OpFlushAll, false, true},
	binNoop: {OpNoop, false, true}, binVersion: {OpVersion, false, true},
	binAppend: {OpAppend, false, true}, binPrepend: {OpPrepend, false, true},
	binStat: {OpStats, false, true}, binTouch: {OpTouch, false, true},
	binGAT: {OpGAT, false, true},
}

// opToBin is every Op's (non-quiet) opcode.
var opToBin = [OpGAT + 1]byte{
	OpGet: binGet, OpSet: binSet, OpAdd: binAdd, OpReplace: binReplace,
	OpCAS:    binSet, // CAS is a Set with a nonzero cas field
	OpDelete: binDelete, OpIncr: binIncr, OpDecr: binDecr,
	OpQuit: binQuit, OpFlushAll: binFlush, OpNoop: binNoop,
	OpVersion: binVersion, OpAppend: binAppend, OpPrepend: binPrepend,
	OpStats: binStat, OpTouch: binTouch, OpGAT: binGAT,
}

// binMaxHead is the most a frame puts in front of its key: the header and
// the widest extras (incr/decr's 20 bytes).
const binMaxHead = binHeaderLen + 20

// binHead starts a frame in w's own spare buffer, so nothing is allocated
// and no header escapes: it returns room for the header, to which the
// caller appends the extras (and a reply's numeric value) before handing
// the lot to writeBinFrame.
func binHead(w *bufio.Writer) []byte {
	var hdr [binHeaderLen]byte
	return append(spare(w, binMaxHead), hdr[:]...)
}

// writeBinFrame fills in the header at the front of head — extLen of the
// bytes behind it are the frame's extras — and writes head, key and value.
func writeBinFrame(w *bufio.Writer, head []byte, magic, opcode byte, extLen int, status Status, opaque uint32, cas uint64, key, value []byte) error {
	head[0], head[1], head[4] = magic, opcode, byte(extLen)
	binary.BigEndian.PutUint16(head[2:], uint16(len(key)))
	binary.BigEndian.PutUint16(head[6:], uint16(status))
	binary.BigEndian.PutUint32(head[8:], uint32(len(head)-binHeaderLen+len(key)+len(value)))
	binary.BigEndian.PutUint32(head[12:], opaque)
	binary.BigEndian.PutUint64(head[16:], cas)
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(key); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

// WriteBinaryCommand encodes a request frame.
func WriteBinaryCommand(w *bufio.Writer, c *Command) error {
	if int(c.Op) >= len(opToBin) {
		return fmt.Errorf("protocol: op %v has no binary encoding", c.Op)
	}
	opcode := opToBin[c.Op]
	if c.Quiet {
		switch c.Op {
		case OpGet:
			opcode = binGetQ
		case OpSet, OpCAS:
			opcode = binSetQ
		}
	}
	head := binHead(w)
	switch c.Op {
	case OpSet, OpAdd, OpReplace, OpCAS:
		head = binary.BigEndian.AppendUint32(head, c.Flags)
		head = binary.BigEndian.AppendUint32(head, uint32(c.Exptime))
	case OpIncr, OpDecr:
		head = binary.BigEndian.AppendUint64(head, c.Delta)
		head = binary.BigEndian.AppendUint64(head, 0)          // initial value: unused
		head = binary.BigEndian.AppendUint32(head, 0xffffffff) // no auto-vivify
	case OpTouch, OpGAT:
		head = binary.BigEndian.AppendUint32(head, uint32(c.Exptime))
	case OpFlushAll:
		if c.Exptime != 0 {
			head = binary.BigEndian.AppendUint32(head, uint32(c.Exptime))
		}
	}
	return writeBinFrame(w, head, binReqMagic, opcode, len(head)-binHeaderLen, 0, c.Opaque, c.CAS, c.Key, c.Value)
}

// ReadBinaryCommand reads one request frame into a buffer of its own and
// decodes it: the command owns its bytes. io.EOF is returned verbatim at a
// clean connection end.
func ReadBinaryCommand(r *bufio.Reader) (*Command, error) { return readOwned(r, decodeBinary) }

// decodeBinary is the binary protocol's decoder (see decoder). Magic,
// opcode and the three lengths are validated from the 24 header bytes
// before anything past them is looked at.
func decodeBinary(c *Command, b []byte) (int, error) {
	if len(b) < binHeaderLen {
		return 0, nil
	}
	if b[0] != binReqMagic {
		return 0, fmt.Errorf("protocol: bad request magic %#x", b[0])
	}
	if int(b[1]) >= len(binToOp) || !binToOp[b[1]].known {
		return 0, fmt.Errorf("protocol: unknown binary opcode %#x", b[1])
	}
	info := binToOp[b[1]]
	keyLen := int(binary.BigEndian.Uint16(b[2:]))
	extLen := int(b[4])
	bodyLen := int(binary.BigEndian.Uint32(b[8:]))
	if keyLen > MaxKeyLen || bodyLen > MaxBodyLen || extLen+keyLen > bodyLen {
		return 0, fmt.Errorf("protocol: implausible frame (key=%d ext=%d body=%d)", keyLen, extLen, bodyLen)
	}
	n := binHeaderLen + bodyLen
	if len(b) < n {
		return n, nil
	}
	body := b[binHeaderLen:n]
	*c = Command{
		Op:     info.op,
		Quiet:  info.quiet,
		Opaque: binary.BigEndian.Uint32(b[12:]),
		CAS:    binary.BigEndian.Uint64(b[16:]),
		Key:    body[extLen : extLen+keyLen],
		Keys:   c.Keys[:0],
		Value:  body[extLen+keyLen:],
	}
	if c.Op == OpSet && c.CAS != 0 {
		c.Op = OpCAS
	}
	switch c.Op {
	case OpSet, OpAdd, OpReplace, OpCAS:
		if extLen >= 8 {
			c.Flags = binary.BigEndian.Uint32(body[0:])
			c.Exptime = int64(binary.BigEndian.Uint32(body[4:]))
		}
	case OpIncr, OpDecr:
		if extLen >= 8 {
			c.Delta = binary.BigEndian.Uint64(body[0:])
		}
	case OpTouch, OpGAT, OpFlushAll:
		if extLen >= 4 {
			c.Exptime = int64(binary.BigEndian.Uint32(body[0:]))
		}
	}
	return n, nil
}

// WriteBinaryReply encodes a response frame. For stats, one frame per pair
// plus an empty terminator, per the protocol. The quiet opcodes keep their
// silence here, as noreply does in WriteASCIIReply: GETQ/GETKQ write no
// frame for a miss, SETQ (with or without a cas) none for a success.
func WriteBinaryReply(w *bufio.Writer, c *Command, rep *Reply) error {
	if c.Quiet && (c.Op == OpGet && rep.Status == StatusKeyNotFound ||
		(c.Op == OpSet || c.Op == OpCAS) && rep.Status == StatusOK) {
		return nil
	}
	if c.Op == OpStats {
		for _, kv := range rep.Stats {
			if err := writeBinFrame(w, binHead(w), binResMagic, binStat, 0, StatusOK, rep.Opaque, 0, []byte(kv[0]), []byte(kv[1])); err != nil {
				return err
			}
		}
		return writeBinFrame(w, binHead(w), binResMagic, binStat, 0, StatusOK, rep.Opaque, 0, nil, nil)
	}
	head := binHead(w)
	var extLen int
	var value []byte
	switch c.Op {
	case OpGet, OpGAT:
		if rep.Status == StatusOK {
			head, extLen = binary.BigEndian.AppendUint32(head, rep.Flags), 4
			value = rep.Value
		}
	case OpIncr, OpDecr:
		if rep.Status == StatusOK {
			head = binary.BigEndian.AppendUint64(head, rep.Numeric) // the value, riding in the head
		}
	case OpVersion:
		value = []byte(rep.Version)
	}
	if rep.Status == StatusTempFailure && rep.Message != "" {
		// Binary error frames carry their detail in the value, matching
		// memcached's convention for non-OK statuses.
		value = []byte(rep.Message)
	}
	return writeBinFrame(w, head, binResMagic, opToBin[c.Op], extLen, rep.Status, rep.Opaque, rep.CAS, nil, value)
}

// ReadBinaryReply decodes one response frame (client side) into a Reply
// that owns its bytes. For stats the caller keeps reading until the empty
// terminating frame.
func ReadBinaryReply(r *bufio.Reader) (*Reply, byte, error) {
	hdr, err := r.Peek(binHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	if hdr[0] != binResMagic {
		return nil, 0, fmt.Errorf("protocol: bad response magic %#x", hdr[0])
	}
	opcode := hdr[1]
	keyLen := int(binary.BigEndian.Uint16(hdr[2:]))
	extLen := int(hdr[4])
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	if bodyLen > MaxBodyLen || extLen+keyLen > bodyLen {
		return nil, 0, fmt.Errorf("protocol: implausible response frame")
	}
	rep := &Reply{
		Status: Status(binary.BigEndian.Uint16(hdr[6:])),
		Opaque: binary.BigEndian.Uint32(hdr[12:]),
		CAS:    binary.BigEndian.Uint64(hdr[16:]),
	}
	r.Discard(binHeaderLen) //nolint:errcheck // peeked above; hdr is dead from here on
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	rep.Key, rep.Value = body[extLen:extLen+keyLen], body[extLen+keyLen:]
	if rep.Status != StatusOK && len(rep.Value) > 0 {
		// An error frame's value is its detail (see WriteBinaryReply).
		rep.Message, rep.Value = string(rep.Value), nil
	}
	switch opcode {
	case binGet, binGetQ, binGetK, binGetKQ, binGAT:
		if extLen >= 4 {
			rep.Flags = binary.BigEndian.Uint32(body[0:])
		}
	case binIncr, binDecr:
		if rep.Status == StatusOK && len(rep.Value) == 8 {
			rep.Numeric = binary.BigEndian.Uint64(rep.Value)
			rep.Value = nil
		}
	case binVersion:
		rep.Version = string(rep.Value)
		rep.Value = nil
	}
	return rep, opcode, nil
}
