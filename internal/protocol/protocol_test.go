package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func binRoundtripCmd(t *testing.T, c *Command) *Command {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteBinaryCommand(w, c); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	back, err := ReadBinaryCommand(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestBinaryCommandRoundtrip(t *testing.T) {
	cases := []*Command{
		{Op: OpGet, Key: []byte("k"), Opaque: 7},
		{Op: OpSet, Key: []byte("key"), Value: []byte("value"), Flags: 42, Exptime: 99, Opaque: 1},
		{Op: OpAdd, Key: []byte("k"), Value: []byte("v")},
		{Op: OpReplace, Key: []byte("k"), Value: []byte("v")},
		{Op: OpCAS, Key: []byte("k"), Value: []byte("v"), CAS: 1234},
		{Op: OpDelete, Key: []byte("k")},
		{Op: OpIncr, Key: []byte("n"), Delta: 5},
		{Op: OpDecr, Key: []byte("n"), Delta: 3},
		{Op: OpAppend, Key: []byte("k"), Value: []byte("x")},
		{Op: OpPrepend, Key: []byte("k"), Value: []byte("x")},
		{Op: OpTouch, Key: []byte("k"), Exptime: 55},
		{Op: OpFlushAll},
		{Op: OpStats},
		{Op: OpVersion},
		{Op: OpNoop},
		{Op: OpQuit},
		{Op: OpGet, Key: []byte("k"), Quiet: true},
		{Op: OpSet, Key: []byte("k"), Value: []byte("v"), Quiet: true},
		{Op: OpCAS, Key: []byte("k"), Value: []byte("v"), CAS: 7, Quiet: true}, // SETQ with a cas
	}
	for _, c := range cases {
		back := binRoundtripCmd(t, c)
		if back.Op != c.Op {
			t.Errorf("%v: op came back %v", c.Op, back.Op)
		}
		if !bytes.Equal(back.Key, c.Key) || !bytes.Equal(back.Value, c.Value) {
			t.Errorf("%v: key/value mismatch", c.Op)
		}
		if back.Flags != c.Flags && (c.Op == OpSet || c.Op == OpAdd) {
			t.Errorf("%v: flags %d != %d", c.Op, back.Flags, c.Flags)
		}
		if back.Exptime != c.Exptime && (c.Op == OpSet || c.Op == OpTouch) {
			t.Errorf("%v: exptime %d != %d", c.Op, back.Exptime, c.Exptime)
		}
		if back.Delta != c.Delta || back.CAS != c.CAS || back.Opaque != c.Opaque || back.Quiet != c.Quiet {
			t.Errorf("%v: fields mismatch: %+v vs %+v", c.Op, back, c)
		}
	}
}

// Property: any key/value/flags/exptime survives a binary set roundtrip.
func TestQuickBinarySetRoundtrip(t *testing.T) {
	f := func(key []byte, value []byte, flags uint32, exp uint32, opaque uint32, cas uint64) bool {
		if len(key) == 0 || len(key) > MaxKeyLen {
			return true
		}
		c := &Command{Op: OpSet, Key: key, Value: value, Flags: flags,
			Exptime: int64(exp), Opaque: opaque, CAS: cas}
		back := binRoundtripCmd(t, c)
		wantOp := OpSet
		if cas != 0 {
			wantOp = OpCAS // nonzero CAS on a binary set decodes as CAS
		}
		return back.Op == wantOp && bytes.Equal(back.Key, key) &&
			bytes.Equal(back.Value, value) && back.Flags == flags &&
			back.Exptime == int64(exp) && back.Opaque == opaque && back.CAS == cas
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryReplyRoundtrip(t *testing.T) {
	cases := []struct {
		c   *Command
		rep *Reply
	}{
		{&Command{Op: OpGet, Key: []byte("k")}, &Reply{Status: StatusOK, Value: []byte("hello"), Flags: 9, CAS: 77, Opaque: 3}},
		{&Command{Op: OpGet, Key: []byte("k")}, &Reply{Status: StatusKeyNotFound}},
		{&Command{Op: OpSet, Key: []byte("k")}, &Reply{Status: StatusOK, CAS: 5}},
		{&Command{Op: OpIncr, Key: []byte("n")}, &Reply{Status: StatusOK, Numeric: 123456}},
		{&Command{Op: OpDelete, Key: []byte("k")}, &Reply{Status: StatusKeyNotFound}},
		{&Command{Op: OpVersion}, &Reply{Status: StatusOK, Version: "1.6-plib"}},
	}
	for _, cse := range cases {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteBinaryReply(w, cse.c, cse.rep); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		back, _, err := ReadBinaryReply(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if back.Status != cse.rep.Status {
			t.Errorf("%v: status %v != %v", cse.c.Op, back.Status, cse.rep.Status)
		}
		if !bytes.Equal(back.Value, cse.rep.Value) && cse.c.Op == OpGet {
			t.Errorf("get value %q != %q", back.Value, cse.rep.Value)
		}
		if back.Numeric != cse.rep.Numeric || back.Version != cse.rep.Version {
			t.Errorf("%v: numeric/version mismatch", cse.c.Op)
		}
	}
}

// A SETQ that carries a cas is as quiet as one that does not: nothing on
// success, a frame on a conflict.
func TestBinaryQuietCASReply(t *testing.T) {
	c := &Command{Op: OpCAS, Key: []byte("k"), Value: []byte("v"), CAS: 7, Quiet: true}
	if got := encodeReply(t, c, &Reply{Status: StatusOK}); len(got) != 0 {
		t.Errorf("quiet cas success wrote % x", got)
	}
	if got := encodeReply(t, c, &Reply{Status: StatusKeyExists}); len(got) != binHeaderLen {
		t.Errorf("quiet cas conflict wrote %d bytes, want one bare frame", len(got))
	}
}

func TestBinaryStatsFrames(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	rep := &Reply{Status: StatusOK, Stats: [][2]string{{"curr_items", "5"}, {"bytes", "1000"}}}
	if err := WriteBinaryReply(w, &Command{Op: OpStats}, rep); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	var got [][2]string
	for {
		rep, _, err := ReadBinaryReply(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Key) == 0 {
			break
		}
		got = append(got, [2]string{string(rep.Key), string(rep.Value)})
	}
	if len(got) != 2 || got[0][0] != "curr_items" || got[1][1] != "1000" {
		t.Fatalf("stats = %v", got)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinaryCommand(bufio.NewReader(bytes.NewReader([]byte("GET / HTTP/1.1\r\n\r\n........")))); err == nil {
		t.Fatal("HTTP garbage should be rejected")
	}
	// Truncated header.
	if _, err := ReadBinaryCommand(bufio.NewReader(bytes.NewReader([]byte{0x80, 0x01}))); err == nil {
		t.Fatal("truncated header should error")
	}
	// Clean EOF.
	if _, err := ReadBinaryCommand(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatal("empty stream should be io.EOF")
	}
	// Implausible body length.
	hdr := make([]byte, 24)
	hdr[0] = 0x80
	hdr[1] = 0x01
	hdr[8] = 0xFF // bodylen ~ 4 GiB
	if _, err := ReadBinaryCommand(bufio.NewReader(bytes.NewReader(hdr))); err == nil {
		t.Fatal("absurd body length should be rejected")
	}
}

func asciiRoundtrip(t *testing.T, c *Command) *Command {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteASCIICommand(w, c); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	back, err := ReadASCIICommand(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("%v: %v (wire: %q)", c.Op, err, buf.String())
	}
	return back
}

func TestASCIICommandRoundtrip(t *testing.T) {
	cases := []*Command{
		{Op: OpGet, Key: []byte("akey")},
		{Op: OpSet, Key: []byte("k"), Value: []byte("some value with spaces"), Flags: 3, Exptime: 60},
		{Op: OpSet, Key: []byte("k"), Value: []byte("v"), Quiet: true},
		{Op: OpAdd, Key: []byte("k"), Value: []byte("v")},
		{Op: OpReplace, Key: []byte("k"), Value: []byte("")},
		{Op: OpCAS, Key: []byte("k"), Value: []byte("v"), CAS: 99},
		{Op: OpAppend, Key: []byte("k"), Value: []byte("tail")},
		{Op: OpPrepend, Key: []byte("k"), Value: []byte("head")},
		{Op: OpDelete, Key: []byte("k")},
		{Op: OpIncr, Key: []byte("n"), Delta: 10},
		{Op: OpDecr, Key: []byte("n"), Delta: 2},
		{Op: OpTouch, Key: []byte("k"), Exptime: 30},
		{Op: OpFlushAll},
		{Op: OpStats},
		{Op: OpVersion},
		{Op: OpQuit},
	}
	for _, c := range cases {
		back := asciiRoundtrip(t, c)
		if back.Op != c.Op || !bytes.Equal(back.Key, c.Key) || !bytes.Equal(back.Value, c.Value) {
			t.Errorf("%v: roundtrip mismatch: %+v", c.Op, back)
		}
		if back.Flags != c.Flags || back.Exptime != c.Exptime || back.Delta != c.Delta ||
			back.CAS != c.CAS || back.Quiet != c.Quiet {
			t.Errorf("%v: field mismatch: %+v vs %+v", c.Op, back, c)
		}
	}
}

// Property: ASCII data blocks are binary safe — any payload, including CRLF
// and control bytes, survives (length-prefixed framing).
func TestQuickASCIIBinarySafeValues(t *testing.T) {
	f := func(value []byte) bool {
		c := &Command{Op: OpSet, Key: []byte("k"), Value: value}
		back := asciiRoundtrip(t, c)
		return bytes.Equal(back.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestASCIIReplyRoundtrip(t *testing.T) {
	type tc struct {
		c   *Command
		rep *Reply
	}
	cases := []tc{
		{&Command{Op: OpGet, Key: []byte("k")}, &Reply{Status: StatusOK, Value: []byte("v\r\nwith crlf"), Flags: 7, CAS: 3}},
		{&Command{Op: OpGet, Key: []byte("k")}, &Reply{Status: StatusKeyNotFound}},
		{&Command{Op: OpSet, Key: []byte("k")}, &Reply{Status: StatusOK}},
		{&Command{Op: OpAdd, Key: []byte("k")}, &Reply{Status: StatusKeyExists}},
		{&Command{Op: OpCAS, Key: []byte("k")}, &Reply{Status: StatusKeyExists}},
		{&Command{Op: OpCAS, Key: []byte("k")}, &Reply{Status: StatusKeyNotFound}},
		{&Command{Op: OpDelete, Key: []byte("k")}, &Reply{Status: StatusOK}},
		{&Command{Op: OpDelete, Key: []byte("k")}, &Reply{Status: StatusKeyNotFound}},
		{&Command{Op: OpIncr, Key: []byte("n")}, &Reply{Status: StatusOK, Numeric: 41}},
		{&Command{Op: OpTouch, Key: []byte("k")}, &Reply{Status: StatusOK}},
		{&Command{Op: OpFlushAll}, &Reply{Status: StatusOK}},
		{&Command{Op: OpStats}, &Reply{Status: StatusOK, Stats: [][2]string{{"pid", "1"}, {"uptime", "2 3"}}}},
		{&Command{Op: OpVersion}, &Reply{Status: StatusOK, Version: "1.6-plib"}},
	}
	for _, cse := range cases {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteASCIIReply(w, cse.c, cse.rep); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		back, err := ReadASCIIReply(bufio.NewReader(&buf), cse.c)
		if err != nil {
			t.Fatalf("%v/%v: %v (wire %q)", cse.c.Op, cse.rep.Status, err, buf.String())
		}
		if back.Status != cse.rep.Status {
			t.Errorf("%v: status %v, want %v (wire %q)", cse.c.Op, back.Status, cse.rep.Status, buf.String())
		}
		if cse.c.Op == OpGet && cse.rep.Status == StatusOK {
			if !bytes.Equal(back.Value, cse.rep.Value) || back.Flags != cse.rep.Flags || back.CAS != cse.rep.CAS {
				t.Errorf("get reply mismatch: %+v", back)
			}
		}
		if back.Numeric != cse.rep.Numeric || back.Version != cse.rep.Version {
			t.Errorf("%v: numeric/version mismatch", cse.c.Op)
		}
		if len(back.Stats) != len(cse.rep.Stats) {
			t.Errorf("stats length %d != %d", len(back.Stats), len(cse.rep.Stats))
		}
	}
}

func TestASCIIRejectsMalformed(t *testing.T) {
	for _, s := range malformedASCII {
		if _, err := ReadASCIICommand(bufio.NewReader(bytes.NewReader([]byte(s)))); err == nil {
			t.Errorf("malformed %q accepted", s)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusKeyNotFound, StatusKeyExists,
		StatusValueTooLarge, StatusInvalidArgs, StatusNotStored, StatusNonNumeric,
		StatusUnknownCommand, StatusOutOfMemory, Status(999)} {
		if s.String() == "" {
			t.Errorf("empty string for status %d", uint16(s))
		}
	}
	for op := OpGet; op <= OpQuit; op++ {
		if op.String() == "" {
			t.Errorf("empty name for op %d", op)
		}
	}
}

// TestWriteASCIICommandRefusesBadKeys: a key the ASCII line cannot carry —
// past MaxKeyLen, or holding a space, a control byte or DEL, which would
// end the line early — is refused with ErrBadKey before a byte is written,
// on the multi-key line too; any other key, multi-key line included,
// renders as it is.
func TestWriteASCIICommandRefusesBadKeys(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, c := range []Command{
		{Op: OpGet, Key: []byte("x\r\nflush_all")},
		{Op: OpSet, Key: []byte("a b"), Value: []byte("v")},
		{Op: OpDelete, Key: []byte("tab\tkey")},
		{Op: OpTouch, Key: []byte("del\x7f")},
		{Op: OpIncr, Key: []byte("nul\x00"), Delta: 1},
		{Op: OpGAT, Key: bytes.Repeat([]byte("k"), MaxKeyLen+1)},
		{Op: OpGet, Key: []byte("ok"), Keys: [][]byte{[]byte("fine"), []byte("bad\nkey")}},
	} {
		if err := WriteASCIICommand(w, &c); !errors.Is(err, ErrBadKey) {
			t.Errorf("%v %q %q: %v; want ErrBadKey", c.Op, c.Key, c.Keys, err)
		}
	}
	w.Flush()
	if buf.Len() != 0 {
		t.Fatalf("refused commands wrote %q", buf.Bytes())
	}
	c := Command{Op: OpGet, Key: []byte("a"), Keys: [][]byte{[]byte("b"), []byte("\xc3\xa9"), bytes.Repeat([]byte("k"), MaxKeyLen)}}
	if err := WriteASCIICommand(w, &c); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if want := "gets a b \xc3\xa9 " + strings.Repeat("k", MaxKeyLen) + "\r\n"; buf.String() != want {
		t.Fatalf("multi-key line = %q, want %q", buf.String(), want)
	}
}
