package codec

import (
	"encoding/binary"
	"hash/crc32"
	"io"
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

// ReadFrame reads one frame from a stream and returns its verified body. A
// failure to read the header is returned as it is — io.EOF when the stream
// ends at a frame boundary; a length above max (garbage read as a header —
// refused before anything is allocated), a body cut short and a checksum
// mismatch are ErrFormat.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, sum := parseHeader(hdr[:])
	if n > max {
		return nil, errorf("frame length %d exceeds %d", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
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
