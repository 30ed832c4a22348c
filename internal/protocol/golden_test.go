package protocol

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"testing"
)

// Golden wire-format tests: the binary protocol's byte layout is a
// compatibility contract (real memcached clients depend on it); these pin
// the exact frames so a refactor cannot silently change the wire.

func encodeCmd(t *testing.T, c *Command) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteBinaryCommand(w, c); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return buf.Bytes()
}

func encodeReply(t *testing.T, c *Command, rep *Reply) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteBinaryReply(w, c, rep); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return buf.Bytes()
}

func TestGoldenBinaryGet(t *testing.T) {
	got := encodeCmd(t, &Command{Op: OpGet, Key: []byte("Hello"), Opaque: 0xdeadbeef})
	want := "" +
		"80" + // magic: request
		"00" + // opcode: get
		"0005" + // key length
		"00" + // extras length
		"00" + // data type
		"0000" + // vbucket
		"00000005" + // total body
		"deadbeef" + // opaque
		"0000000000000000" + // cas
		"48656c6c6f" // "Hello"
	if hex.EncodeToString(got) != want {
		t.Fatalf("get frame:\n got %s\nwant %s", hex.EncodeToString(got), want)
	}
}

func TestGoldenBinarySet(t *testing.T) {
	got := encodeCmd(t, &Command{
		Op: OpSet, Key: []byte("Hello"), Value: []byte("World"),
		Flags: 0xdeadbeef, Exptime: 3600,
	})
	want := "" +
		"80" + "01" + "0005" + "08" + "00" + "0000" +
		"00000012" + // body = 8 extras + 5 key + 5 value
		"00000000" + "0000000000000000" +
		"deadbeef" + // flags
		"00000e10" + // expiry 3600
		"48656c6c6f" + // key
		"576f726c64" // value
	if hex.EncodeToString(got) != want {
		t.Fatalf("set frame:\n got %s\nwant %s", hex.EncodeToString(got), want)
	}
}

func TestGoldenBinaryIncr(t *testing.T) {
	got := encodeCmd(t, &Command{Op: OpIncr, Key: []byte("counter"), Delta: 1})
	want := "" +
		"80" + "05" + "0007" + "14" + "00" + "0000" +
		"0000001b" + // body = 20 extras + 7 key
		"00000000" + "0000000000000000" +
		"0000000000000001" + // delta
		"0000000000000000" + // initial
		"ffffffff" + // expiry: no auto-create
		hex.EncodeToString([]byte("counter"))
	if hex.EncodeToString(got) != want {
		t.Fatalf("incr frame:\n got %s\nwant %s", hex.EncodeToString(got), want)
	}
}

func TestGoldenBinaryGetHitReply(t *testing.T) {
	got := encodeReply(t, &Command{Op: OpGet, Key: []byte("Hello")},
		&Reply{Status: StatusOK, Flags: 0xdeadbeef, Value: []byte("World"), CAS: 1})
	want := "" +
		"81" + // magic: response
		"00" + "0000" + "04" + "00" +
		"0000" + // status OK
		"00000009" + // body = 4 extras + 5 value
		"00000000" +
		"0000000000000001" + // cas
		"deadbeef" + // flags extras
		"576f726c64"
	if hex.EncodeToString(got) != want {
		t.Fatalf("get reply:\n got %s\nwant %s", hex.EncodeToString(got), want)
	}
}

func TestGoldenBinaryMissReply(t *testing.T) {
	got := encodeReply(t, &Command{Op: OpGet, Key: []byte("k")},
		&Reply{Status: StatusKeyNotFound})
	want := "81" + "00" + "0000" + "00" + "00" +
		"0001" + // status: key not found
		"00000000" + "00000000" + "0000000000000000"
	if hex.EncodeToString(got) != want {
		t.Fatalf("miss reply:\n got %s\nwant %s", hex.EncodeToString(got), want)
	}
}

func TestGoldenASCIISet(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteASCIICommand(w, &Command{
		Op: OpSet, Key: []byte("greeting"), Value: []byte("hi"), Flags: 5, Exptime: 60,
	}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if got := buf.String(); got != "set greeting 5 60 2\r\nhi\r\n" {
		t.Fatalf("ascii set = %q", got)
	}
}

func TestGoldenASCIIGetReply(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	cmd := &Command{Op: OpGet, Key: []byte("k")}
	if err := WriteASCIIReply(w, cmd, &Reply{Status: StatusOK, Flags: 7, Value: []byte("vv"), CAS: 9}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if got := buf.String(); got != "VALUE k 7 2 9\r\nvv\r\nEND\r\n" {
		t.Fatalf("ascii get reply = %q", got)
	}
}

// An append or prepend on a missing key is not stored, and says so the way
// memcached does: a bare NOT_STORED, not a server error.
func TestGoldenASCIINotStoredReply(t *testing.T) {
	for _, op := range []Op{OpAppend, OpPrepend} {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteASCIIReply(w, &Command{Op: op, Key: []byte("k")}, &Reply{Status: StatusNotStored}); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if got := buf.String(); got != "NOT_STORED\r\n" {
			t.Fatalf("ascii %v reply = %q", op, got)
		}
	}
}
