package wal_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"webdbsec/internal/resilience/faultinject"
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

// FuzzScanSegment checks Open's chunked segment scan against the extended
// layout. Frames followed by any run of zeros — the unwritten tail of a
// segment extended when it was created — open, under any SegmentBytes and so
// any chunk size, to exactly those frames' records and end cleanly: no torn
// tail, nothing rewritten. A chunk may end inside a frame header whose first
// bytes are zero (a payload length that is a multiple of 256), which must
// not pass for the clean end. Any bytes at all, followed by zeros, open
// without an error.
func FuzzScanSegment(f *testing.F) {
	f.Add([]byte("hello"), uint16(0), uint16(4095))
	f.Add([]byte("a\xffb\xff\xffc"), uint16(16), uint16(40))
	f.Add([]byte{}, uint16(4096), uint16(1))
	f.Add(make([]byte, 40), uint16(7), uint16(17))
	f.Add(wal.EncodeFrame(nil, 3, []byte("frame-shaped")), uint16(15), uint16(64))
	f.Add(append(append(bytes.Repeat([]byte("a"), 256), 0xff), bytes.Repeat([]byte("b"), 512)...), uint16(40), uint16(272))

	const name = "wal-00000001.log"
	f.Fuzz(func(t *testing.T, data []byte, zeros, segBytes uint16) {
		opts := wal.Options{SegmentBytes: 1 + int(segBytes)}
		payloads := bytes.Split(data, []byte{0xff})
		var seg []byte
		for i, p := range payloads {
			seg = wal.EncodeFrame(seg, uint64(i+1), p)
		}
		fs := faultinject.NewMemFS()
		if err := fs.WriteTrunc(name, append(seg, make([]byte, zeros)...)); err != nil {
			t.Fatal(err)
		}
		written := fs.BytesWritten()
		opts.FS = fs
		w, err := wal.Open(opts)
		if err != nil {
			t.Fatalf("%d frames then %d zeros: Open: %v", len(payloads), zeros, err)
		}
		if st := w.Stats(); st.TornTails != 0 || st.LastLSN != uint64(len(payloads)) || fs.BytesWritten() != written {
			t.Fatalf("%d frames then %d zeros, SegmentBytes %d: TornTails %d, LastLSN %d, %d bytes rewritten",
				len(payloads), zeros, opts.SegmentBytes, st.TornTails, st.LastLSN, fs.BytesWritten()-written)
		}
		got := replayAll(t, w)
		if len(got) != len(payloads) {
			t.Fatalf("replayed %d records, wrote %d frames", len(got), len(payloads))
		}
		for i, r := range got {
			if r.LSN != uint64(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("record %d = (%d, %x), wrote %x", i+1, r.LSN, r.Payload, payloads[i])
			}
		}
		w.Close()

		raw := faultinject.NewMemFS()
		if err := raw.WriteTrunc(name, append(append([]byte(nil), data...), make([]byte, zeros)...)); err != nil {
			t.Fatal(err)
		}
		opts.FS = raw
		w, err = wal.Open(opts)
		if err != nil {
			t.Fatalf("Open over arbitrary bytes: %v", err)
		}
		w.Close()
	})
}
