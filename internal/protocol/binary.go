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

var binToOp = map[byte]struct {
	op    Op
	quiet bool
}{
	binGet: {OpGet, false}, binGetQ: {OpGet, true},
	binGetK: {OpGet, false}, binGetKQ: {OpGet, true},
	binSet: {OpSet, false}, binSetQ: {OpSet, true},
	binAdd: {OpAdd, false}, binReplace: {OpReplace, false},
	binDelete: {OpDelete, false},
	binIncr:   {OpIncr, false}, binDecr: {OpDecr, false},
	binQuit: {OpQuit, false}, binFlush: {OpFlushAll, false},
	binNoop: {OpNoop, false}, binVersion: {OpVersion, false},
	binAppend: {OpAppend, false}, binPrepend: {OpPrepend, false},
	binStat: {OpStats, false}, binTouch: {OpTouch, false},
	binGAT: {OpGAT, false},
}

var opToBin = map[Op]byte{
	OpGet: binGet, OpSet: binSet, OpAdd: binAdd, OpReplace: binReplace,
	OpCAS:    binSet, // CAS is a Set with a nonzero cas field
	OpDelete: binDelete, OpIncr: binIncr, OpDecr: binDecr,
	OpQuit: binQuit, OpFlushAll: binFlush, OpNoop: binNoop,
	OpVersion: binVersion, OpAppend: binAppend, OpPrepend: binPrepend,
	OpStats: binStat, OpTouch: binTouch, OpGAT: binGAT,
}

// WriteBinaryCommand encodes a request frame.
func WriteBinaryCommand(w *bufio.Writer, c *Command) error {
	opcode, ok := opToBin[c.Op]
	if !ok {
		return fmt.Errorf("protocol: op %v has no binary encoding", c.Op)
	}
	if c.Quiet {
		switch c.Op {
		case OpGet:
			opcode = binGetQ
		case OpSet:
			opcode = binSetQ
		}
	}
	var extras []byte
	switch c.Op {
	case OpSet, OpAdd, OpReplace, OpCAS, OpAppend, OpPrepend:
		if c.Op != OpAppend && c.Op != OpPrepend {
			extras = make([]byte, 8)
			binary.BigEndian.PutUint32(extras[0:], c.Flags)
			binary.BigEndian.PutUint32(extras[4:], uint32(c.Exptime))
		}
	case OpIncr, OpDecr:
		extras = make([]byte, 20)
		binary.BigEndian.PutUint64(extras[0:], c.Delta)
		binary.BigEndian.PutUint64(extras[8:], 0)           // initial value: unused
		binary.BigEndian.PutUint32(extras[16:], 0xffffffff) // no auto-vivify
	case OpTouch, OpGAT:
		extras = make([]byte, 4)
		binary.BigEndian.PutUint32(extras, uint32(c.Exptime))
	}
	var hdr [binHeaderLen]byte
	hdr[0] = binReqMagic
	hdr[1] = opcode
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(c.Key)))
	hdr[4] = byte(len(extras))
	body := len(extras) + len(c.Key) + len(c.Value)
	binary.BigEndian.PutUint32(hdr[8:], uint32(body))
	binary.BigEndian.PutUint32(hdr[12:], c.Opaque)
	binary.BigEndian.PutUint64(hdr[16:], c.CAS)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(extras); err != nil {
		return err
	}
	if _, err := w.Write(c.Key); err != nil {
		return err
	}
	_, err := w.Write(c.Value)
	return err
}

// ReadBinaryCommand decodes one request frame. io.EOF is returned verbatim
// at a clean connection end.
func ReadBinaryCommand(r *bufio.Reader) (*Command, error) {
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != binReqMagic {
		return nil, fmt.Errorf("protocol: bad request magic %#x", hdr[0])
	}
	info, ok := binToOp[hdr[1]]
	if !ok {
		return nil, fmt.Errorf("protocol: unknown binary opcode %#x", hdr[1])
	}
	keyLen := int(binary.BigEndian.Uint16(hdr[2:]))
	extLen := int(hdr[4])
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	if keyLen > MaxKeyLen || bodyLen > MaxBodyLen || extLen+keyLen > bodyLen {
		return nil, fmt.Errorf("protocol: implausible frame (key=%d ext=%d body=%d)", keyLen, extLen, bodyLen)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("protocol: truncated body: %w", err)
	}
	c := &Command{
		Op:     info.op,
		Quiet:  info.quiet,
		Opaque: binary.BigEndian.Uint32(hdr[12:]),
		CAS:    binary.BigEndian.Uint64(hdr[16:]),
		Key:    body[extLen : extLen+keyLen],
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
	case OpTouch, OpGAT:
		if extLen >= 4 {
			c.Exptime = int64(binary.BigEndian.Uint32(body[0:]))
		}
	}
	return c, nil
}

// WriteBinaryReply encodes a response frame. For stats, one frame per pair
// plus an empty terminator, per the protocol. The quiet opcodes keep their
// silence here, as noreply does in WriteASCIIReply: GETQ/GETKQ write no
// frame for a miss, SETQ none for a success.
func WriteBinaryReply(w *bufio.Writer, c *Command, rep *Reply) error {
	if c.Quiet && (c.Op == OpGet && rep.Status == StatusKeyNotFound ||
		c.Op == OpSet && rep.Status == StatusOK) {
		return nil
	}
	if c.Op == OpStats {
		for _, kv := range rep.Stats {
			if err := writeBinaryResFrame(w, binStat, StatusOK, []byte(kv[0]), []byte(kv[1]), nil, rep.Opaque, 0); err != nil {
				return err
			}
		}
		return writeBinaryResFrame(w, binStat, StatusOK, nil, nil, nil, rep.Opaque, 0)
	}
	opcode := opToBin[c.Op]
	var extras, value []byte
	switch c.Op {
	case OpGet, OpGAT:
		if rep.Status == StatusOK {
			extras = make([]byte, 4)
			binary.BigEndian.PutUint32(extras, rep.Flags)
			value = rep.Value
		}
	case OpIncr, OpDecr:
		if rep.Status == StatusOK {
			value = make([]byte, 8)
			binary.BigEndian.PutUint64(value, rep.Numeric)
		}
	case OpVersion:
		value = []byte(rep.Version)
	}
	if rep.Status == StatusTempFailure && rep.Message != "" {
		// Binary error frames carry their detail in the value, matching
		// memcached's convention for non-OK statuses.
		value = []byte(rep.Message)
	}
	return writeBinaryResFrame(w, opcode, rep.Status, nil, value, extras, rep.Opaque, rep.CAS)
}

func writeBinaryResFrame(w *bufio.Writer, opcode byte, status Status, key, value, extras []byte, opaque uint32, cas uint64) error {
	var hdr [binHeaderLen]byte
	hdr[0] = binResMagic
	hdr[1] = opcode
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(key)))
	hdr[4] = byte(len(extras))
	binary.BigEndian.PutUint16(hdr[6:], uint16(status))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(extras)+len(key)+len(value)))
	binary.BigEndian.PutUint32(hdr[12:], opaque)
	binary.BigEndian.PutUint64(hdr[16:], cas)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(extras); err != nil {
		return err
	}
	if _, err := w.Write(key); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

// ReadBinaryReply decodes one response frame (client side). For stats the
// caller keeps reading until the empty terminating frame.
func ReadBinaryReply(r *bufio.Reader) (*Reply, byte, error) {
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
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
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	rep := &Reply{
		Status: Status(binary.BigEndian.Uint16(hdr[6:])),
		Opaque: binary.BigEndian.Uint32(hdr[12:]),
		CAS:    binary.BigEndian.Uint64(hdr[16:]),
		Key:    body[extLen : extLen+keyLen],
		Value:  body[extLen+keyLen:],
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
