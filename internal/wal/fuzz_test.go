package wal_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"webdbsec/internal/wal"
)

// FuzzWALDecode feeds arbitrary bytes to the frame decoder. Two
// properties must hold for any input: the decoder never panics, and any
// frame it accepts re-encodes to exactly the bytes it consumed (so a
// recovered log can only contain data that was genuinely written).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(wal.EncodeFrame(nil, 1, []byte("hello")))
	f.Add(wal.EncodeFrame(wal.EncodeFrame(nil, 1, []byte("a")), 2, []byte("b")))
	// Torn tail: a valid frame followed by half of another.
	torn := wal.EncodeFrame(nil, 7, []byte("committed"))
	torn = append(torn, wal.EncodeFrame(nil, 8, []byte("torn-off-here"))[:9]...)
	f.Add(torn)
	// Huge declared length with no body.
	var huge [16]byte
	binary.LittleEndian.PutUint32(huge[:4], 1<<30)
	f.Add(huge[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		rest := b
		for len(rest) > 0 {
			lsn, payload, next, err := wal.DecodeFrame(rest)
			if err != nil {
				return
			}
			consumed := rest[:len(rest)-len(next)]
			if re := wal.EncodeFrame(nil, lsn, payload); !bytes.Equal(re, consumed) {
				t.Fatalf("accepted frame does not round-trip:\nconsumed %x\nreencode %x", consumed, re)
			}
			if len(next) >= len(rest) {
				t.Fatalf("decoder made no progress: %d -> %d bytes", len(rest), len(next))
			}
			rest = next
		}
	})
}

// FuzzScanSegment checks the segment scanner against the extended layout.
// Frames followed by any run of zeros — the unwritten tail of a segment
// extended when it was created — scan back to exactly those frames' records
// and end cleanly at the first zero. Any bytes at all, followed by zeros,
// scan without panicking, and every frame the scan yields re-encodes to
// exactly the bytes it consumed.
func FuzzScanSegment(f *testing.F) {
	f.Add([]byte("hello"), uint16(0))
	f.Add([]byte("a\xffb\xff\xffc"), uint16(16))
	f.Add([]byte{}, uint16(4096))
	f.Add(make([]byte, 40), uint16(7))
	f.Add(wal.EncodeFrame(nil, 3, []byte("frame-shaped")), uint16(15))

	f.Fuzz(func(t *testing.T, data []byte, zeros uint16) {
		payloads := bytes.Split(data, []byte{0xff})
		var seg []byte
		for i, p := range payloads {
			seg = wal.EncodeFrame(seg, uint64(i+1), p)
		}
		written := len(seg)
		seg = append(seg, make([]byte, zeros)...)
		var got [][]byte
		last := 0
		if err := wal.ScanSegment(seg, func(lsn uint64, p []byte, end int) bool {
			if lsn != uint64(len(got)+1) {
				t.Fatalf("frame %d carries LSN %d", len(got)+1, lsn)
			}
			got, last = append(got, p), end
			return true
		}); err != nil {
			t.Fatalf("%d frames then %d zeros: %v", len(payloads), zeros, err)
		}
		if len(got) != len(payloads) || last != written {
			t.Fatalf("scan yielded %d frames ending at %d, wrote %d frames over %d bytes", len(got), last, len(payloads), written)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("frame %d payload %x, wrote %x", i+1, got[i], payloads[i])
			}
		}

		raw := append(append([]byte(nil), data...), make([]byte, zeros)...)
		prev := 0
		_ = wal.ScanSegment(raw, func(lsn uint64, p []byte, end int) bool {
			if re := wal.EncodeFrame(nil, lsn, p); !bytes.Equal(re, raw[prev:end]) {
				t.Fatalf("accepted frame does not round-trip:\nconsumed %x\nreencode %x", raw[prev:end], re)
			}
			prev = end
			return true
		})
	})
}
