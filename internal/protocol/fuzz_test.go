package protocol

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Robustness: the decoders face bytes from untrusted peers. Whatever
// arrives, they return an error or a value — they never panic, never take
// more from the stream than a validated header declares, and never depend
// on how the bytes were cut into reads. The seed corpora run inside plain
// `go test`; `make fuzz` explores from them.

// frame encodes commands in the binary protocol.
func frame(cmds ...Command) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := range cmds {
		if err := WriteBinaryCommand(w, &cmds[i]); err != nil {
			panic(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

// header is a bare 24-byte request header.
func header(opcode byte, keyLen uint16, extLen byte, bodyLen uint32) []byte {
	h := make([]byte, binHeaderLen)
	h[0], h[1], h[2], h[3], h[4] = binReqMagic, opcode, byte(keyLen>>8), byte(keyLen), extLen
	h[8], h[9], h[10], h[11] = byte(bodyLen>>24), byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen)
	return h
}

var (
	bigValue = bytes.Repeat([]byte("0123456789abcdef"), 70<<10/16) // wider than the window

	// The golden frames, every verb, the quiet variants, and the frames
	// TestBinaryRejectsGarbage and the length-validation test refuse.
	binarySeeds = [][]byte{
		frame(Command{Op: OpGet, Key: []byte("Hello"), Opaque: 0xdeadbeef}),
		frame(Command{Op: OpSet, Key: []byte("Hello"), Value: []byte("World"), Flags: 0xdeadbeef, Exptime: 3600}),
		frame(Command{Op: OpIncr, Key: []byte("counter"), Delta: 1}),
		frame(Command{Op: OpGet, Key: []byte("k"), Quiet: true}, Command{Op: OpSet, Key: []byte("k"), Value: []byte("v"), Quiet: true}),
		frame(Command{Op: OpCAS, Key: []byte("k"), Value: []byte("v"), CAS: 9, Quiet: true}), // SETQ with a cas
		frame(Command{Op: OpAdd, Key: []byte("k"), Value: []byte("v")}, Command{Op: OpReplace, Key: []byte("k"), Value: []byte("v")},
			Command{Op: OpAppend, Key: []byte("k"), Value: []byte("v")}, Command{Op: OpPrepend, Key: []byte("k"), Value: []byte("v")},
			Command{Op: OpDelete, Key: []byte("k")}, Command{Op: OpDecr, Key: []byte("k"), Delta: 2},
			Command{Op: OpTouch, Key: []byte("k"), Exptime: 5}, Command{Op: OpGAT, Key: []byte("k"), Exptime: 5},
			Command{Op: OpStats}, Command{Op: OpVersion}, Command{Op: OpFlushAll}, Command{Op: OpNoop}, Command{Op: OpQuit}),
		frame(Command{Op: OpSet, Key: []byte("big"), Value: bigValue}),
		[]byte("GET / HTTP/1.1\r\n\r\n........"),
		{0x80, 0x01},
		header(binSet, 0, 0, 0xffffffff),    // body ≈ 4 GiB
		header(binSet, 0, 0, MaxBodyLen+1),  // one past the bound
		header(binSet, MaxKeyLen+1, 0, 300), // key too long
		header(binSet, 5, 8, 12),            // extras + key past the body
		header(0x42, 0, 0, 0),               // unknown opcode
		header(binGAT+1, 0, 0, 0),           // first opcode past the table
	}

	// Rows of TestASCIIRejectsMalformed and the width tests, then one
	// well-formed command per verb, noreply forms and a multi-key get.
	malformedASCII = []string{
		"\r\n",
		"bogus cmd\r\n",
		"set k\r\n",
		"set k notanumber 0 5\r\nhello\r\n",
		"set k 0 0 99999999999\r\n",
		"incr k\r\n",
		"incr k abc\r\n",
		"touch k\r\n",
		"delete\r\n",
		"set k 0 0 5\r\nhelloXX", // bad terminator
		"set k 4294967296 0 1\r\nv\r\n",
		"cas k 4294967296 0 1 7\r\nv\r\n",
		"set k 0 2147483648 1\r\nv\r\n",
		"touch k -2147483649\r\n",
		"gat 99999999999 k\r\n",
		"cas k 0 0 1 notacas\r\nv\r\n",
		"get\r\n",
	}
	asciiVerbs = []string{
		"get k\r\n", "gets k\r\n", "get a bb ccc\r\n",
		"set greeting 5 60 2\r\nhi\r\n", "set k 0 0 1 noreply\r\nv\r\n",
		"add k 1 2 1\r\nv\r\n", "replace k 1 2 1\r\nv\r\n", "append k 0 0 1\r\nv\r\n", "prepend k 0 0 1\r\nv\r\n",
		"cas k 1 2 1 77\r\nv\r\n", "cas k 1 2 1 77 noreply\r\nv\r\n", "set k 0 -1 0\r\n\r\n",
		"delete k\r\n", "delete k noreply\r\n", "incr n 5\r\n", "decr n 18446744073709551615\r\n",
		"touch k 10\r\n", "gat 10 k\r\n", "flush_all\r\n", "stats\r\n", "stats slabs\r\n", "version\r\n",
		"get  spaced\tout \r\n", "set k 0 0 3\r\na\nb\r\n", "get k\n",
	}
	asciiSeeds = append(append([]string{"quit\r\n", "set big 0 0 71680\r\n" + string(bigValue) + "\r\n"},
		asciiVerbs...), malformedASCII...)
)

// rest is what is left of a stream that began as data once n bytes of it
// have been taken.
func checkRest(t *testing.T, r *bufio.Reader, data []byte, n int) {
	t.Helper()
	rest, _ := io.ReadAll(r)
	if !bytes.Equal(rest, data[n:]) {
		t.Fatalf("decoder took %d bytes of %d, its frame is %d", len(data)-len(rest), len(data), n)
	}
}

// fuzzCommand checks one command decoder on data: the window decode and
// the owning wrapper agree on outcome and on every field, and the wrapper
// takes exactly the frame from the stream. It returns the command if
// there was one.
func fuzzCommand(t *testing.T, data []byte, decode decoder, read func(*bufio.Reader) (*Command, error)) *Command {
	var lent Command
	n, derr := decode(&lent, data)
	r := bufio.NewReaderSize(bytes.NewReader(data), len(data)+1) // the window holds it all
	owned, err := read(r)
	if derr != nil || n == 0 || n > len(data) {
		if err == nil {
			t.Fatalf("window decode says (%d, %v) of %d bytes, the owning read returned %+v", n, derr, len(data), owned)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("window decode found a %d-byte frame, the owning read failed: %v", n, err)
	}
	if !reflect.DeepEqual(*owned, lent) {
		t.Fatalf("owned %+v\nlent  %+v", *owned, lent)
	}
	checkRest(t, r, data, n)
	return owned
}

func FuzzBinaryCommand(f *testing.F) {
	for _, s := range binarySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCommand(t, data, decodeBinary, ReadBinaryCommand)
		if c == nil || len(c.Value) > 1<<20 {
			return
		}
		// What decoded re-encodes to a frame that decodes to the same.
		var back Command
		enc := frame(*c)
		if n, err := decodeBinary(&back, enc); err != nil || n != len(enc) || !reflect.DeepEqual(back, *c) {
			t.Fatalf("re-encoded %+v decodes to (%d of %d, %v) %+v", *c, n, len(enc), err, back)
		}
	})
}

func FuzzASCIICommand(f *testing.F) {
	for _, s := range asciiSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCommand(t, data, decodeASCII, ReadASCIICommand)
		if c == nil {
			return
		}
		// WriteASCIICommand renders one key, no stats argument, and
		// noreply on the plain stores only; what it can say must come
		// back as it was.
		plainStore := c.Op == OpSet || c.Op == OpAdd || c.Op == OpReplace || c.Op == OpAppend || c.Op == OpPrepend
		if len(c.Keys) > 0 || c.StatsArg != "" || c.Quiet && !plainStore {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteASCIICommand(w, c); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		var back Command
		if n, err := decodeASCII(&back, buf.Bytes()); err != nil || n != buf.Len() || !reflect.DeepEqual(back, *c) {
			t.Fatalf("re-encoded %+v as %q decodes to (%d, %v) %+v", *c, buf.Bytes(), n, err, back)
		}
	})
}

func FuzzBinaryReply(f *testing.F) {
	get := &Command{Op: OpGet, Key: []byte("Hello")}
	for _, s := range [][]byte{
		encodeReplyBytes(get, &Reply{Status: StatusOK, Flags: 0xdeadbeef, Value: []byte("World"), CAS: 1}),
		encodeReplyBytes(get, &Reply{Status: StatusKeyNotFound}),
		encodeReplyBytes(&Command{Op: OpIncr}, &Reply{Numeric: 42}),
		encodeReplyBytes(&Command{Op: OpVersion}, &Reply{Version: "1.6"}),
		encodeReplyBytes(&Command{Op: OpStats}, &Reply{Stats: [][2]string{{"curr_items", "3"}}}),
		encodeReplyBytes(get, &Reply{Status: StatusTempFailure, Message: "shard 2 rebuilding"}),
		{0x81, 0x00},
		append([]byte{0x81, 0, 0, 9, 9, 0, 0, 0, 0, 0, 0, 4}, make([]byte, 16)...), // key + extras past the body
		append([]byte{0x81, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, make([]byte, 12)...),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		rep, _, err := ReadBinaryReply(r)
		if err != nil {
			return
		}
		n := binHeaderLen + int(uint32(data[8])<<24|uint32(data[9])<<16|uint32(data[10])<<8|uint32(data[11]))
		checkRest(t, r, data, n)
		if len(rep.Key)+len(rep.Value) > n-binHeaderLen {
			t.Fatalf("reply holds %d+%d bytes of a %d-byte body", len(rep.Key), len(rep.Value), n-binHeaderLen)
		}
	})
}

// FuzzASCIIReply: the ASCII reply parser meets a server's bytes. Whatever
// they are, it returns a reply or an error and never panics. A well-formed
// reply to any op — its own status lines, and the ERROR, CLIENT_ERROR and
// SERVER_ERROR lines any op may get instead — parses, and is read to its
// end and no further: the VERSION line behind it is what the next read
// finds.
func FuzzASCIIReply(f *testing.F) {
	for op := OpGet; op <= OpGAT; op++ {
		for pick := 0; pick < len(asciiReplyStatuses)+2; pick++ {
			f.Add(uint8(op), uint8(pick), "shard 1 rebuilding", []byte("VALUE k 0 3 1\r\nabc\r\nEND\r\n"))
		}
	}
	f.Add(uint8(OpIncr), uint8(0), "", []byte("CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"))
	f.Add(uint8(OpGet), uint8(0), "", []byte("VALUE k 0 -3\r\nxyz\r\nEND\r\n"))
	f.Add(uint8(OpStats), uint8(0), "", []byte("STAT a b\r\nSTAT c\r\nEND\r\n"))
	f.Fuzz(func(t *testing.T, op, pick uint8, msg string, raw []byte) {
		c := &Command{Op: Op(op) % (OpGAT + 1), Key: []byte("k")}
		if c.Op == OpNoop || c.Op == OpQuit {
			return // no ASCII reply
		}
		ReadASCIIReply(bufio.NewReader(bytes.NewReader(raw)), c) //nolint:errcheck // it must only not panic
		msg = strings.Map(func(r rune) rune {
			if r == '\r' || r == '\n' {
				return -1
			}
			return r
		}, msg)
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		counter := c.Op == OpIncr || c.Op == OpDecr
		switch i := int(pick) % (len(asciiReplyStatuses) + 2); i {
		case len(asciiReplyStatuses):
			w.WriteString("CLIENT_ERROR " + msg + "\r\n")
		case len(asciiReplyStatuses) + 1:
			w.WriteString("SERVER_ERROR " + msg + "\r\n")
		default:
			st := asciiReplyStatuses[i]
			if counter && (st == StatusKeyExists || st == StatusNotStored || st == StatusValueTooLarge) {
				return // never a counter's answer
			}
			WriteASCIIReply(w, c, &Reply{Status: st, Message: msg, Value: raw, Flags: 7, CAS: 9, //nolint:errcheck
				Numeric: uint64(len(raw)), Version: msg})
		}
		w.WriteString("VERSION trailer\r\n")
		w.Flush()
		sent := bytes.Clone(buf.Bytes())
		r := bufio.NewReader(&buf)
		if _, err := ReadASCIIReply(r, c); err != nil {
			t.Fatalf("%v reply %q: %v", c.Op, sent, err)
		}
		if rep, err := ReadASCIIReply(r, &Command{Op: OpVersion}); err != nil || rep.Version != "trailer" {
			t.Fatalf("after the %v reply in %q the next read is %+v, %v", c.Op, sent, rep, err)
		}
	})
}

// asciiReplyStatuses are the statuses WriteASCIIReply renders for a server.
var asciiReplyStatuses = []Status{StatusOK, StatusKeyNotFound, StatusKeyExists, StatusValueTooLarge,
	StatusInvalidArgs, StatusNotStored, StatusNonNumeric, StatusUnknownCommand, StatusOutOfMemory, StatusTempFailure}

func encodeReplyBytes(c *Command, rep *Reply) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteBinaryReply(w, c, rep); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// scriptConn is the server's end of a connection whose client sends a
// fixed byte string cut into given chunks, one per Read, then hangs up.
type scriptConn struct {
	net.Conn // nil: ServeConn calls only the methods below
	chunks   [][]byte
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}
func (c *scriptConn) Write(p []byte) (int, error)     { return c.out.Write(p) }
func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }

// mapDispatch serves commands from a map. It keeps to the lifetime rule
// in the strictest way: it copies what it stores and, once a command's
// reply is written, overwrites every byte the command lent it — so a read
// loop that looked at a dispatched frame again would be found out.
func mapDispatch(m map[string][]byte) func(*bufio.Writer, bool, []Command) {
	return func(w *bufio.Writer, binary bool, cmds []Command) {
		for i := range cmds {
			c := &cmds[i]
			rep := Reply{Status: StatusOK, Opaque: c.Opaque, Version: "fuzz"}
			switch c.Op {
			case OpGet, OpGAT:
				if v, ok := m[string(c.Key)]; ok {
					rep.Value, rep.Flags = v, uint32(len(v))
				} else {
					rep.Status = StatusKeyNotFound
				}
			case OpSet, OpAdd, OpReplace, OpCAS, OpAppend, OpPrepend:
				m[string(c.Key)] = append([]byte(nil), c.Value...)
			case OpDelete, OpTouch, OpIncr, OpDecr:
				if _, ok := m[string(c.Key)]; !ok {
					rep.Status = StatusKeyNotFound
				}
				if c.Op == OpDelete {
					delete(m, string(c.Key))
				}
			}
			switch {
			case binary:
				WriteBinaryReply(w, c, &rep) //nolint:errcheck
			case c.Op == OpGet && len(c.Keys) > 0:
				for i := 0; i <= len(c.Keys); i++ {
					if v, ok := m[string(c.KeyAt(i))]; ok {
						WriteASCIIValue(w, c.KeyAt(i), 0, v, 1)
					}
				}
				w.WriteString("END\r\n")
			default:
				WriteASCIIReply(w, c, &rep) //nolint:errcheck
			}
			for _, lent := range append([][]byte{c.Key, c.Value}, c.Keys...) {
				for i := range lent {
					lent[i] = 0xff
				}
			}
		}
	}
}

// serveScript runs ServeConn over script cut into chunks, and returns
// the reply stream.
func serveScript(script []byte, chunks [][]byte) []byte {
	c := &scriptConn{chunks: chunks}
	ServeConn(c, 0, mapDispatch(map[string][]byte{}))
	return c.out.Bytes()
}

// cut slices a copy of script into chunks of 1+b² bytes (1 … 65 026), b
// taken from cuts in rotation: {0} is a byte at a time, {255} past the
// window.
func cut(script, cuts []byte) [][]byte {
	script = append([]byte(nil), script...)
	var chunks [][]byte
	for i := 0; len(script) > 0; i++ {
		n := 1
		if len(cuts) > 0 {
			n += int(cuts[i%len(cuts)]) * int(cuts[i%len(cuts)])
		}
		n = min(n, len(script))
		chunks, script = append(chunks, script[:n]), script[n:]
	}
	return chunks
}

// FuzzServeConnChunking: however a script is cut into reads — a byte at a
// time, inside a header, inside a data block, around a frame wider than
// the window — the reply stream is the one the script gets in one piece.
func FuzzServeConnChunking(f *testing.F) {
	edge := bytes.Repeat([]byte("x"), window-binHeaderLen-8-1+1) // a set frame one byte wider than the window
	scripts := [][]byte{
		[]byte(strings.Join(asciiVerbs, "")),
		[]byte("set a 0 0 1\r\nx\r\nget a\r\nset k 4294967296 0 1\r\nv\r\nget a\r\n"),
		[]byte("set a 1 0 2 noreply\r\nhi\r\nget a missing a\r\ndelete a\r\nget a\r\nquit\r\nget a\r\n"),
		[]byte("set big 0 0 71680\r\n" + string(bigValue) + "\r\nget big\r\nget k"),
		append(bytes.Repeat([]byte("k"), window), "\r\nget a\r\n"...), // a line that ends just past the window
		bytes.Join(binarySeeds[:6], nil),
		append(frame(Command{Op: OpSet, Key: []byte("big"), Value: bigValue}, Command{Op: OpGet, Key: []byte("big")}), 0x80, 0x00),
		frame(Command{Op: OpSet, Key: []byte("k"), Value: edge}, Command{Op: OpGet, Key: []byte("k")}, Command{Op: OpNoop}),
		append(frame(Command{Op: OpGet, Key: []byte("a")}), binarySeeds[len(binarySeeds)-2]...),
	}
	for _, s := range scripts {
		for _, cuts := range [][]byte{{0}, {3}, {1, 5, 0, 12}, {255}, {254, 0}, {16, 2}} {
			f.Add(s, cuts)
		}
	}
	f.Fuzz(func(t *testing.T, script, cuts []byte) {
		whole := serveScript(script, [][]byte{append([]byte(nil), script...)})
		if got := serveScript(script, cut(script, cuts)); !bytes.Equal(got, whole) {
			t.Fatalf("cut by %v: %d reply bytes %.200q\nin one piece: %d reply bytes %.200q", cuts, len(got), got, len(whole), whole)
		}
	})
}

// TestASCIILineBound: a command line has to end inside the reader's
// window. A peer that streams bytes and never sends a newline is refused
// after one window of them, not buffered without limit.
func TestASCIILineBound(t *testing.T) {
	for _, size := range []int{4096, window} {
		src := &countingReader{r: bytes.NewReader(bytes.Repeat([]byte("a"), 1<<20))}
		_, err := ReadASCIICommand(bufio.NewReaderSize(src, size))
		if err != ErrLineTooLong {
			t.Errorf("window %d: 1 MiB without a newline: %v, want ErrLineTooLong", size, err)
		}
		if src.n > size {
			t.Errorf("window %d: the decoder consumed %d bytes before refusing", size, src.n)
		}
	}
	// The longest line that fits is served: a multi-get of maximal keys.
	line := "get" + strings.Repeat(" "+strings.Repeat("k", MaxKeyLen), (window-5)/(MaxKeyLen+1)) + "\r\n"
	c, err := ReadASCIICommand(bufio.NewReaderSize(strings.NewReader(line), window))
	if err != nil || 1+len(c.Keys) != (window-5)/(MaxKeyLen+1) {
		t.Fatalf("%d-byte multi-get: %v", len(line), err)
	}
}

// TestReadCommandWiderThanWindow: the owning readers serve a frame of any
// permitted size from a reader of any size, and stop at the frame's end.
func TestReadCommandWiderThanWindow(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader(frame(Command{Op: OpSet, Key: []byte("big"), Value: bigValue}, Command{Op: OpGet, Key: []byte("next")})))
	if c, err := ReadBinaryCommand(r); err != nil || !bytes.Equal(c.Value, bigValue) {
		t.Fatalf("binary set of %d bytes through a %d-byte reader: %v", len(bigValue), r.Size(), err)
	}
	if c, err := ReadBinaryCommand(r); err != nil || c.Op != OpGet || string(c.Key) != "next" {
		t.Fatalf("the command behind it: %+v, %v", c, err)
	}
	r = bufio.NewReader(strings.NewReader("set big 0 0 71680\r\n" + string(bigValue) + "\r\nget next\r\n"))
	if c, err := ReadASCIICommand(r); err != nil || !bytes.Equal(c.Value, bigValue) {
		t.Fatalf("ASCII set of %d bytes through a %d-byte reader: %v", len(bigValue), r.Size(), err)
	}
	if c, err := ReadASCIICommand(r); err != nil || c.Op != OpGet || string(c.Key) != "next" {
		t.Fatalf("the command behind it: %+v, %v", c, err)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// A malicious length field must not make a decoder allocate (or wait
// for) the claimed size before validation — neither the owning readers
// nor the window decode ServeConn runs.
func TestBinaryLengthValidationBeforeAllocation(t *testing.T) {
	hdr := header(binSet, 0, 0, 0xffffffff) // bodylen ≈ 4 GiB
	line := []byte("set k 0 0 99999999999\r\n")
	allocated := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	if n := allocated(func() {
		if _, err := ReadBinaryCommand(bufio.NewReader(bytes.NewReader(hdr))); err == nil {
			t.Error("4 GiB body accepted")
		}
		if _, err := ReadASCIICommand(bufio.NewReader(bytes.NewReader(line))); err == nil {
			t.Error("absurd ASCII data length accepted")
		}
		var c Command
		if n, err := decodeBinary(&c, hdr); err == nil {
			t.Errorf("window decode: 4 GiB body accepted (frame length %d)", n)
		}
		if n, err := decodeASCII(&c, line); err == nil {
			t.Errorf("window decode: absurd ASCII data length accepted (frame length %d)", n)
		}
		// Through the loop itself: the replies so far, then the hang-up.
		if got := serveScript(nil, [][]byte{append(frame(Command{Op: OpNoop}), hdr...)}); len(got) != binHeaderLen {
			t.Errorf("ServeConn wrote %d bytes around a 4 GiB frame, want the noop's %d", len(got), binHeaderLen)
		}
	}); n > 1<<20 {
		t.Errorf("refusing the frames allocated %d bytes", n)
	}
	// The largest frame a header may declare is honoured without the
	// decoder running ahead of the bytes: it waits, it does not fail.
	var c Command
	if n, err := decodeBinary(&c, header(binSet, 0, 0, MaxBodyLen)); err != nil || n != binHeaderLen+MaxBodyLen {
		t.Errorf("MaxBodyLen frame: (%d, %v)", n, err)
	}
}
