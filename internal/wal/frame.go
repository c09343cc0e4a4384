package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// ErrCorrupt — so segments are read through ScanSegment, which does.
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

// ScanSegment is the one reader of a segment's bytes: it decodes the frames
// of data in order and calls fn with each good frame's LSN, its payload
// (aliasing data) and the offset just past it; fn returns false to stop
// there. It returns nil when fn stopped it or at the segment's clean end:
// the end of data, or an all-zero header — the unwritten tail of a segment
// the log extended to its full length when it created it. No frame has a
// zero header, because LSNs start at 1. A torn or corrupt frame returns
// ErrTorn or ErrCorrupt; the good prefix ends at the last offset fn saw (0
// if none).
func ScanSegment(data []byte, fn func(lsn uint64, payload []byte, end int) bool) error {
	for off := 0; off < len(data) && !zeroHeader(data[off:]); {
		lsn, payload, next, err := DecodeFrame(data[off:])
		if err != nil {
			return err
		}
		off = len(data) - len(next)
		if !fn(lsn, payload, off) {
			return nil
		}
	}
	return nil
}

// zeroHeader reports whether the frame header at the start of b, or as much
// of it as b holds, is all zero.
func zeroHeader(b []byte) bool {
	if len(b) > frameHeaderSize {
		b = b[:frameHeaderSize]
	}
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
