// Package protocol implements memcached's two wire protocols — the
// human-readable ASCII protocol and the compact binary protocol — as used
// between the baseline client and server. This package, together with the
// socket server and client built on it, is precisely the code the paper
// *removed* when memcached became a protected library (~5200 of the ~6800
// deleted lines were "devoted to socket communication and to packing and
// unpacking of message buffers"); it exists here so the baseline comparison
// is faithful.
//
// Both protocols speak the same protocol-neutral Command/Reply model, so
// the server's dispatch loop is protocol agnostic.
//
// Who owns a command's bytes. Each protocol has one decoder (decodeBinary,
// decodeASCII), which fills a Command whose Key, Keys and Value alias the
// frame it was handed. ServeConn hands it frames where they lie in the
// connection's read window, so a Command passed to its dispatch callback
// borrows the window until the callback returns: whatever must outlive the
// run is copied before then. ReadBinaryCommand and ReadASCIICommand (and,
// on the client side, ReadBinaryReply and ReadASCIIReply) return values
// that own their bytes: one frame is read into a buffer of its own first.
package protocol

import "fmt"

// Op enumerates the memcached operations carried by either protocol.
type Op uint8

// Operations.
const (
	OpGet Op = iota
	OpSet
	OpAdd
	OpReplace
	OpCAS
	OpDelete
	OpIncr
	OpDecr
	OpAppend
	OpPrepend
	OpTouch
	OpFlushAll
	OpStats
	OpVersion
	OpNoop
	OpQuit
	OpGAT // get-and-touch
)

var opNames = [...]string{
	OpGet: "get", OpSet: "set", OpAdd: "add", OpReplace: "replace",
	OpCAS: "cas", OpDelete: "delete", OpIncr: "incr", OpDecr: "decr",
	OpAppend: "append", OpPrepend: "prepend", OpTouch: "touch",
	OpFlushAll: "flush_all", OpStats: "stats", OpVersion: "version",
	OpNoop: "noop", OpQuit: "quit", OpGAT: "gat",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is the outcome of an operation.
type Status uint16

// Statuses (values match the binary protocol's response status field).
const (
	StatusOK             Status = 0x0000
	StatusKeyNotFound    Status = 0x0001
	StatusKeyExists      Status = 0x0002
	StatusValueTooLarge  Status = 0x0003
	StatusInvalidArgs    Status = 0x0004
	StatusNotStored      Status = 0x0005
	StatusNonNumeric     Status = 0x0006
	StatusUnknownCommand Status = 0x0081
	StatusOutOfMemory    Status = 0x0082
	// StatusTempFailure mirrors memcached's binary 0x0086 "temporary
	// failure": the server cannot serve this key right now but expects
	// to again — the proxy uses it while a shard's circuit breaker is
	// open or the supervisor is rebuilding the shard. Retryable.
	StatusTempFailure Status = 0x0086
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusKeyNotFound:
		return "NOT_FOUND"
	case StatusKeyExists:
		return "EXISTS"
	case StatusValueTooLarge:
		return "TOO_LARGE"
	case StatusInvalidArgs:
		return "CLIENT_ERROR bad arguments"
	case StatusNotStored:
		return "NOT_STORED"
	case StatusNonNumeric:
		return "CLIENT_ERROR cannot increment or decrement non-numeric value"
	case StatusUnknownCommand:
		return "ERROR"
	case StatusOutOfMemory:
		return "SERVER_ERROR out of memory"
	case StatusTempFailure:
		return "SERVER_ERROR temporary failure"
	default:
		return fmt.Sprintf("status(%d)", uint16(s))
	}
}

// Command is a protocol-neutral request.
type Command struct {
	Op Op
	// StatsArg is the "stats <arg>" subcommand ("slabs", "items", ...).
	StatsArg string
	Key      []byte
	// Keys carries the extra keys of a multi-key ASCII "get k1 k2 …"
	// (Key holds the first); empty for single-key commands. Servers expand
	// a populated Keys into one lookup per key under a single END.
	Keys  [][]byte
	Value []byte
	Flags uint32
	// Exptime is a store's, touch's or gat's expiry, and flush_all's delay.
	// No server here keeps a delayed flush (it would put a check on every
	// hit): each answers a nonzero one StatusInvalidArgs and flushes nothing.
	Exptime int64
	Delta   uint64 // incr/decr amount
	CAS     uint64
	Opaque  uint32 // binary protocol correlation id
	Quiet   bool   // binary quiet variants / ASCII noreply
}

// KeyAt returns the i'th key of the command's full key list, which is Key
// followed by Keys.
func (c *Command) KeyAt(i int) []byte {
	if i == 0 {
		return c.Key
	}
	return c.Keys[i-1]
}

// Reply is a protocol-neutral response.
type Reply struct {
	Status  Status
	Key     []byte
	Value   []byte
	Flags   uint32
	CAS     uint64
	Opaque  uint32
	Numeric uint64      // incr/decr result
	Stats   [][2]string // stats responses
	Version string
	// Message carries human-readable error detail for server-side
	// failure statuses (e.g. "shard 2 rebuilding" under
	// StatusTempFailure). ASCII renders it as "SERVER_ERROR <Message>";
	// binary ships it as the error frame's value. Empty falls back to
	// the status's canonical text.
	Message string
}

// MaxKeyLen and MaxBodyLen bound what either codec will accept, defending
// the server against absurd frames.
const (
	MaxKeyLen  = 250
	MaxBodyLen = 8 << 20
)
