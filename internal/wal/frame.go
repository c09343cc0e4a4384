package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"
)

// Frame format. Every record on disk — log entries and the checkpoint
// snapshot alike — is one frame:
//
//	offset 0  uint32 LE  payload length n
//	offset 4  uint64 LE  LSN
//	offset 12 uint32 LE  CRC32C (Castagnoli) over bytes [4, 16+n)
//	offset 16 n bytes    payload
//
// The checksum covers the LSN as well as the payload, so a frame cannot be
// silently re-sequenced; the length field is validated against both the
// remaining bytes and MaxPayload, so a corrupted length cannot make the
// reader allocate or skip unboundedly.

const (
	frameHeaderSize = 16
	// MaxPayload bounds a single frame's payload; longer lengths are
	// treated as corruption.
	MaxPayload = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports a frame cut short by a crash: the header or payload
// extends past the end of the segment. On open the log truncates here.
var ErrTorn = errors.New("wal: torn frame")

// ErrCorrupt reports a frame whose checksum or length field is invalid —
// bit rot or tampering rather than a clean tear. On open the log also
// truncates here, but the condition is distinguishable for callers that
// want to refuse service instead (the audit log does).
var ErrCorrupt = errors.New("wal: corrupt frame")

// EncodeFrame appends one frame carrying (lsn, payload) to dst and returns
// the extended slice.
func EncodeFrame(dst []byte, lsn uint64, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:12], lsn)
	crc := crc32.Update(0, castagnoli, hdr[4:12])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrame reads the frame at the start of b. It returns the frame's
// LSN and payload (aliasing b) and the remaining bytes. It knows nothing of
// where a segment ends — an empty b returns ErrTorn, an all-zero header
// ErrCorrupt — so Open finds a segment's end with segScanner.
func DecodeFrame(b []byte) (lsn uint64, payload, rest []byte, err error) {
	if len(b) < frameHeaderSize {
		return 0, nil, nil, ErrTorn
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxPayload {
		return 0, nil, nil, ErrCorrupt
	}
	end := frameHeaderSize + int(n)
	if len(b) < end {
		return 0, nil, nil, ErrTorn
	}
	lsn = binary.LittleEndian.Uint64(b[4:12])
	crc := crc32.Update(0, castagnoli, b[4:12])
	crc = crc32.Update(crc, castagnoli, b[frameHeaderSize:end])
	if crc != binary.LittleEndian.Uint32(b[12:16]) {
		return 0, nil, nil, ErrCorrupt
	}
	return lsn, b[frameHeaderSize:end], b[end:], nil
}

// maxScanChunk caps the bytes segScanner reads at a time.
const maxScanChunk = 64 << 10

// segScanner finds out what a segment holds, for Open: every other reader
// reads only the frames the segment index lists. It reads a chunk at a
// time, into one buffer reused across the segments of an Open.
type segScanner struct {
	fs  FS
	buf []byte
}

// scan decodes name's frames from byte 0 and returns its index entry. It
// stops at the segment's clean end — an all-zero frame header (the
// unwritten tail of an extended segment: no frame has one, because LSNs
// start at 1), or a zero remainder at the file's end — or at a frame that
// does not decode, reporting torn. A shorter zero remainder inside the
// file is no end: a chunk can stop after a real header's leading zero
// bytes. So it reads the frames plus at most one chunk.
func (sc *segScanner) scan(name string) (s segment, torn bool, err error) {
	s.name = name
	var have []byte // the file's bytes from s.end on, as far as read
	eof := false
	for {
		if len(have) >= frameHeaderSize && allZero(have[:frameHeaderSize]) || eof && allZero(have) {
			return s, false, nil
		}
		lsn, _, rest, err := DecodeFrame(have)
		if err == nil {
			if s.end == 0 {
				s.first = lsn
			}
			s.last, s.end, have = lsn, s.end+len(have)-len(rest), rest
			continue
		}
		if err != ErrTorn || eof {
			return s, true, nil
		}
		// Read on behind what is left, doubling the buffer when one frame
		// fills it: the file's end bounds the growth.
		kept := copy(sc.buf, have)
		if kept == len(sc.buf) {
			sc.buf = append(sc.buf, make([]byte, len(sc.buf))...)
		}
		n, err := sc.fs.ReadAt(name, sc.buf[kept:], int64(s.end+kept))
		if err != nil && err != io.EOF {
			return s, false, err
		}
		eof, have = err == io.EOF, sc.buf[:kept+n]
	}
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// frameSize returns the on-disk size of a frame with an n-byte payload.
func frameSize(n int) int { return frameHeaderSize + n }

// encodeBufPool recycles the byte slices the commit pipeline encodes
// frames into, so the steady-state append path allocates nothing per
// record. The pool stores *[]byte and the same pointer travels through
// get/put — boxing a fresh pointer on every Put would itself allocate,
// defeating the pool.
var encodeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getEncodeBuf returns an empty pooled buffer. Callers append through the
// pointer (the slice may grow and move) and hand the same pointer back to
// putEncodeBuf.
func getEncodeBuf() *[]byte {
	p := encodeBufPool.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

// putEncodeBuf returns a buffer obtained from getEncodeBuf to the pool.
// Oversized buffers are dropped so a single huge frame doesn't pin memory
// forever.
func putEncodeBuf(p *[]byte) {
	if cap(*p) > 1<<20 {
		return
	}
	encodeBufPool.Put(p)
}
