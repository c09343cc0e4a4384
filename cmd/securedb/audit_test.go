package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

// startOnAuditFS starts a durable single node whose audit WAL lives on fs.
func startOnAuditFS(t *testing.T, fs *faultinject.MemFS, segmentBytes int) *server {
	t.Helper()
	aw, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	c := testConfig(t)
	c.auditWAL = aw
	s, err := newServer(c)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(s.close)
	return s
}

// TestUnwritableAuditFailsClosed: once the audit WAL cannot sync, /query
// and /exec answer 503 with no result, and keep doing so; so does a request
// the front door refuses, whose deny:auth record the log cannot take.
func TestUnwritableAuditFailsClosed(t *testing.T) {
	fs := faultinject.NewMemFS()
	c := newClient(startOnAuditFS(t, fs, 0).mux(false))
	read := sqlForm("ana", "analyst", "SELECT age, zip FROM patients WHERE age > 70")
	write := sqlForm("dba", "analyst", "UPDATE patients SET zip = '00000' WHERE name = 'person-0003'")
	if r := c.post("/query", read); r.status != http.StatusOK {
		t.Fatalf("before the fault: /query = %d %q", r.status, r.body)
	}
	fs.LimitSyncs(0) // the next fsync of the audit WAL crashes
	for i, step := range []struct {
		path string
		form url.Values
	}{{"/query", read}, {"/exec", write}, {"/query", read}, {"/exec", write}, {"/query", sqlForm("mallory", "analyst", read.Get("sql"))}} {
		r := c.post(step.path, step.form)
		if r.status != http.StatusServiceUnavailable || strings.Contains(r.body, "age") || strings.Contains(r.body, "row(s)") {
			t.Errorf("step %d, %s after the audit WAL failed: %d %q, want 503 and no result", i, step.path, r.status, r.body)
		}
	}
	if r := do(c.h, "GET", "/audit", nil, ""); r.status != http.StatusServiceUnavailable {
		t.Errorf("/audit over a failed WAL: %d %q, want 503", r.status, r.body)
	}
}

// TestAuditUnreadableSegment: with any one segment of the audit WAL
// unreadable, /audit answers 503 or aborts the response; a client never
// reads a clean, shorter trail.
func TestAuditUnreadableSegment(t *testing.T) {
	fs := faultinject.NewMemFS()
	s := startOnAuditFS(t, fs, 1024)
	h := s.mux(false)
	c := newClient(h)
	const n = 20
	for i := 0; i < n; i++ {
		if r := c.post("/query", sqlForm("ana", "analyst", fmt.Sprintf("SELECT age FROM patients WHERE age > %d", i))); r.status != http.StatusOK {
			t.Fatalf("/query %d: %d %q", i, r.status, r.body)
		}
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	get := func() (int, string, error) {
		resp, err := http.Get(ts.URL + "/audit")
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}
	segs, err := fs.List()
	if err != nil || len(segs) < 3 {
		t.Fatalf("want at least 3 audit segments, have %v (%v)", segs, err)
	}
	for _, seg := range segs {
		fs.FailReads(seg)
		if status, body, err := get(); err == nil && status != http.StatusServiceUnavailable {
			t.Errorf("%s unreadable: /audit = %d with %d lines, want 503 or an aborted response", seg, status, strings.Count(body, "\n"))
		}
	}
	fs.FailReads("")
	if status, body, err := get(); err != nil || status != http.StatusOK || strings.Count(body, "\n") != n {
		t.Fatalf("readable again: /audit = %d, %d lines, %v", status, strings.Count(body, "\n"), err)
	}
}

// TestAuditStreamsUnderAppends: /audit read while queries append lists a
// prefix of the trail: consecutive sequence numbers from 0.
func TestAuditStreamsUnderAppends(t *testing.T) {
	h := startSingle(t).mux(false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(h)
			for i := 0; i < 25; i++ {
				c.post("/query", sqlForm("ana", "analyst", fmt.Sprintf("SELECT age FROM patients WHERE age > %d", g*25+i)))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		r := do(h, "GET", "/audit", nil, "")
		if r.status != http.StatusOK {
			t.Fatalf("/audit = %d %q", r.status, r.body)
		}
		for i, line := range strings.Split(strings.TrimSuffix(r.body, "\n"), "\n") {
			if r.body != "" && !strings.HasPrefix(line, fmt.Sprintf("%4d ", i)) {
				t.Fatalf("/audit line %d is %q", i, line)
			}
		}
	}
	if r := do(h, "GET", "/audit", nil, ""); strings.Count(r.body, "\n") != 100 {
		t.Fatalf("/audit after 100 queries: %d lines", strings.Count(r.body, "\n"))
	}
}
