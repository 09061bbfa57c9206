// Package remote puts the storage plane behind a real network seam: Serve
// exposes a storage.Backend over length-prefixed, CRC-framed request/
// response records on TCP, and Dial returns a storage.Backend client that
// speaks the same protocol — so N worker OS processes (each a compute-plane
// member of the cluster runtime) share one out-of-process, independently
// failing store, the deployment shape the paper assumes of DynamoDB and
// Netherite assumes of its partition/storage split.
//
// The protocol is stdlib-only and deliberately small:
//
//   - Every message is one internal/storage/codec frame — the WAL's framing
//     and the WAL's encoding of the storage data model, documented there —
//     around this package's envelope (a request id and an opcode or result
//     code, below). A torn or corrupt frame, or a body that does not decode,
//     kills only the one connection or fails only the one request — the
//     client reconnects and retries what is safe to retry.
//   - Connections open with a versioned handshake, then carry pipelined
//     request/response pairs matched by request id; the server executes
//     requests concurrently, so one slow Scan never queues behind a Put.
//   - Errors round-trip exactly: condition failures, canceled transactions
//     (with per-op reasons), unknown tables/indexes, and size-cap
//     violations arrive as the same errors.Is/errors.As identities the
//     in-process backends return, because every fencing and exactly-once
//     guarantee above the seam branches on them.
//   - The client retries idempotence-safe operations with bounded backoff
//     and fails conditional writes fast; TransactWrite carries a
//     client-supplied request id the server deduplicates in a bounded
//     window, so a retry after an ambiguous timeout can never double-apply
//     a fenced claim.
package remote

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/storage/codec"
)

// Protocol constants.
const (
	// Magic opens every handshake frame.
	Magic = "BLDR"
	// Version is the protocol version this build speaks. Handshakes with a
	// different version are refused with a structured error.
	Version uint16 = 1
)

// maxFrameBody bounds a frame's body; larger length prefixes are treated as
// protocol corruption (a torn stream read as garbage) and kill the
// connection rather than the process.
const maxFrameBody = 64 << 20

// Typed errors the client surfaces. ErrUnavailable wraps every failure to
// reach or keep a server (dial refused, retry budget exhausted, ambiguous
// loss of an in-flight conditional write); callers test with errors.Is.
var (
	// ErrUnavailable reports that the storage server could not be reached,
	// or that an operation's retry budget ran out before a response landed.
	ErrUnavailable = errors.New("remote: storage server unavailable")
	// ErrProtocol reports a framing or encoding violation on the wire — a
	// torn frame, a CRC mismatch, an unknown opcode.
	ErrProtocol = errors.New("remote: protocol error")
	// ErrVersionMismatch reports a handshake with an incompatible peer.
	ErrVersionMismatch = errors.New("remote: protocol version mismatch")
	// ErrClosed reports an operation on a closed client or server.
	ErrClosed = errors.New("remote: closed")
)

// Opcodes. The request body is [u64 id][u8 opcode][payload]; the response
// body is [u64 id][u8 code][payload], where code 0 carries a result payload
// and anything else carries a structured error.
const (
	opPing byte = iota + 1
	opCreateTable
	opDeleteTable
	opTableNames
	opTableShards
	opTableSchema
	opTableBytes
	opTableItemCount
	opGet
	opGetProj
	opPut
	opUpdate
	opDelete
	opQuery
	opQueryIndex
	opScan
	opTransactWrite
	opMetrics
	opWatch
	opUnwatch
)

// opName names an opcode for diagnostics and metrics.
func opName(op byte) string {
	switch op {
	case opPing:
		return "ping"
	case opCreateTable:
		return "create_table"
	case opDeleteTable:
		return "delete_table"
	case opTableNames:
		return "table_names"
	case opTableShards:
		return "table_shards"
	case opTableSchema:
		return "table_schema"
	case opTableBytes:
		return "table_bytes"
	case opTableItemCount:
		return "table_item_count"
	case opGet:
		return "get"
	case opGetProj:
		return "get_proj"
	case opPut:
		return "put"
	case opUpdate:
		return "update"
	case opDelete:
		return "delete"
	case opQuery:
		return "query"
	case opQueryIndex:
		return "query_index"
	case opScan:
		return "scan"
	case opTransactWrite:
		return "transact_write"
	case opMetrics:
		return "metrics"
	case opWatch:
		return "watch"
	case opUnwatch:
		return "unwatch"
	}
	return fmt.Sprintf("op%d", op)
}

// readFrame reads one frame's body off a connection. A clean EOF, or an I/O
// failure before a frame starts, comes back as it is; a frame that is too
// long, cut short or fails its CRC is an ErrProtocol.
func readFrame(r io.Reader) ([]byte, error) {
	body, err := codec.ReadFrame(r, maxFrameBody)
	return body, protoErr(err)
}

// protoErr reports a codec failure — a bad frame, a body that does not
// decode, an expression with no encoding — as the protocol error it is on
// this seam. Any other error, and nil, pass through.
func protoErr(err error) error {
	if errors.Is(err, codec.ErrFormat) {
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return err
}

// decodeErr is the once-per-message check on a request or reply body.
func decodeErr(d *codec.Decoder) error { return protoErr(d.Err()) }

// newHello starts a handshake body, [magic][u16 version]; the server's
// answer goes on with [bool accepted][str reason].
func newHello() *codec.Encoder {
	e := codec.NewEncoder(32)
	e.Raw(Magic)
	e.U16(Version)
	return e
}

// readHello checks the magic and returns the peer's version.
func readHello(d *codec.Decoder) uint16 {
	if magic := d.Raw(len(Magic)); d.Err() == nil && string(magic) != Magic {
		d.Failf("bad magic %q", magic)
	}
	return d.U16()
}
