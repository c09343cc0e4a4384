package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"webdbsec/internal/wal"
)

// span is one timed call into a layer. Spans of one request share
// RequestID; Parent is the index of the enclosing span, -1 for a request's
// top-level calls. Times are nanoseconds since the trace began.
type span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Parent    int    `json:"parent"`
	RequestID int    `json:"request_id"`
}

// tracer keeps spans in memory until the replay ends. The replay is
// single-threaded, but the WAL may call the timing file system from the
// goroutine that leads a group commit, so the open-span stack is locked.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	on      bool
	request int
	spans   []span
	open    []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index, or
// -1 while tracing is off (the replay's own warm-up) or t is nil (the HTTP
// runs, which share the requestor-side checker with the replay).
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, RequestID: t.request})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// nextRequest starts a new request: later spans carry its identifier.
func (t *tracer) nextRequest(id int) {
	t.mu.Lock()
	t.request = id
	t.mu.Unlock()
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its interval
// its direct children cover. Children may overlap one another or stick out
// of the parent; covered time is the union of their intervals clipped to the
// parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, edge := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], edge), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// timingFS wraps a wal.FS so every File.Write and File.Sync of the logs
// becomes a child span of whichever call is waiting for it. Bytes pass
// through unchanged.
type timingFS struct {
	wal.FS
	tr *tracer
}

func (f timingFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timingFile{File: file, tr: f.tr}, nil
}

type timingFile struct {
	wal.File
	tr *tracer
}

func (f timingFile) Write(p []byte) (int, error) {
	id := f.tr.begin("wal.write")
	n, err := f.File.Write(p)
	f.tr.end(id)
	return n, err
}

func (f timingFile) Sync() error {
	id := f.tr.begin("wal.fsync")
	err := f.File.Sync()
	f.tr.end(id)
	return err
}
