package codec

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"sync"
)

// FrameHeaderLen is the fixed framing overhead: [u32 length][u32 crc32c].
const FrameHeaderLen = 8

// castagnoli is the CRC-32C table behind every checksum in both formats.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Frame finishes the message in place — the body's length and checksum go
// into the header room in front of it — and returns header and body as one
// slice, ready for a single Write.
func (e *Encoder) Frame() []byte {
	body := e.Body()
	binary.LittleEndian.PutUint32(e.b[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(e.b[4:8], checksum(body))
	return e.b
}

// Sealed returns the body followed by its checksum: the unframed form a
// snapshot file takes, undone by Unseal.
func (e *Encoder) Sealed() []byte {
	return binary.LittleEndian.AppendUint32(e.Body(), checksum(e.Body()))
}

// Unseal verifies and strips the trailing checksum Sealed appended.
func Unseal(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, errorf("too short")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if checksum(body) != sum {
		return nil, errorf("CRC mismatch")
	}
	return body, nil
}

// parseHeader splits a frame header into body length and checksum.
func parseHeader(hdr []byte) (n int, sum uint32) {
	return int(binary.LittleEndian.Uint32(hdr[0:4])), binary.LittleEndian.Uint32(hdr[4:8])
}

// A FrameReader takes frames off one stream — a connection — through a
// header scratch of its own, reading each body into a recycled Message. It is
// for one goroutine at a time, like the stream under it, but that need not be
// the same goroutine throughout: a server connection's reader changes hands
// between the goroutines serving it, and the handoff that passes it on orders
// the next reader's calls after the last one's.
type FrameReader struct {
	r   io.Reader
	max int
	hdr [FrameHeaderLen]byte
}

// NewFrameReader reads frames from r, refusing any body longer than max.
func NewFrameReader(r io.Reader, max int) *FrameReader {
	return &FrameReader{r: r, max: max}
}

// read takes the next frame off the stream and returns its verified body,
// read into buf when that is large enough. A failure to read the header is
// returned as it is — io.EOF when the stream ends at a frame boundary; a
// length above max (garbage read as a header — refused before anything is
// allocated), a body cut short and a checksum mismatch are ErrFormat.
func (fr *FrameReader) read(buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n, sum := parseHeader(fr.hdr[:])
	if n > fr.max {
		return nil, errorf("frame length %d exceeds %d", n, fr.max)
	}
	if cap(buf) < n {
		buf = make([]byte, n, max(n, pooledBufferSize))
	}
	body := buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, errorf("truncated frame: %v", err)
	}
	if checksum(body) != sum {
		return nil, errorf("frame CRC mismatch")
	}
	return body, nil
}

// Next reads one frame and returns the message in it, with the errors of
// ReadFrame. The caller owns the Message until it calls Release, or drops it.
func (fr *FrameReader) Next() (*Message, error) {
	m := messages.Get().(*Message)
	body, err := fr.read(m.buf)
	if err != nil {
		messages.Put(m)
		return nil, err
	}
	m.buf, m.Decoder = body, Decoder{b: body}
	return m, nil
}

// A Message is one received frame: a Decoder over its body, and the pooled
// buffer the body was read into. Whoever reads its last field calls Release.
type Message struct {
	Decoder
	buf []byte
}

var messages = sync.Pool{New: func() any { return new(Message) }}

// Len is the length of the message's body.
func (m *Message) Len() int { return len(m.buf) }

// Release returns the message and its buffer to the pool. Nothing decoded
// from it is affected — no decoded value aliases the body — but the Message
// itself must not be used again.
func (m *Message) Release() {
	if poison.Load() {
		fill(m.buf[:cap(m.buf)])
	}
	if cap(m.buf) > MaxPooledBuffer {
		m.buf = nil
	}
	m.Decoder = Decoder{}
	messages.Put(m)
}

// ReadFrame reads one frame from a stream and returns its verified body in a
// buffer of its own: the one-shot form of FrameReader, for a handshake.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	return NewFrameReader(r, max).read(nil)
}

// NextFrame takes the frame at data[off:] — a segment file read whole — and
// returns its verified body, aliasing data, and the offset of the frame
// after it. The error says what is wrong at off: the durable prefix of a
// log ends where NextFrame first fails.
func NextFrame(data []byte, off int) (body []byte, next int, err error) {
	rest := data[off:]
	if len(rest) < FrameHeaderLen {
		return nil, off, errorf("torn frame header at offset %d", off)
	}
	n, sum := parseHeader(rest)
	if missing := n - (len(rest) - FrameHeaderLen); missing > 0 {
		return nil, off, errorf("torn record at offset %d (%d body bytes missing)", off, missing)
	}
	body = rest[FrameHeaderLen : FrameHeaderLen+n]
	if checksum(body) != sum {
		return nil, off, errorf("CRC mismatch at offset %d", off)
	}
	return body, off + FrameHeaderLen + n, nil
}
