package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webdbsec/internal/reldb"
	"webdbsec/internal/wal"
)

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(newRNG(1, "w"), 500, 4000)
	b := poissonSchedule(newRNG(1, "w"), 500, 4000)
	c := poissonSchedule(newRNG(2, "w"), 500, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
	if got := a[len(a)-1].Seconds(); got < 7.5 || got > 8.5 {
		t.Errorf("4000 arrivals at 500/s span %.2fs, want about 8", got)
	}
}

func TestZipfSeeded(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(newRNG(seed, "w"), 64)
		out := make([]int, 5000)
		for i := range out {
			out[i] = z()
		}
		return out
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different draws")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same draws")
	}
	counts := make([]int, 64)
	for _, k := range a {
		if k < 0 || k >= 64 {
			t.Fatalf("rank %d outside [0, 64)", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Errorf("not skewed toward low ranks: %v", counts[:12])
	}
}

func TestStreamsSeeded(t *testing.T) {
	bodies := func(seed int64, w *workload) []string {
		rn := &runner{seed: seed}
		st := rn.generate(w, time.Second, time.Second/5, time.Second/5)
		var out []string
		for _, r := range append(st.paced[rounds-1], st.closed[:200]...) {
			out = append(out, r.body)
		}
		return append(out, fmt.Sprint(st.due))
	}
	for _, w := range workloads {
		if !reflect.DeepEqual(bodies(1, w), bodies(1, w)) {
			t.Errorf("%s: same seed, different stream", w.name)
		}
		if reflect.DeepEqual(bodies(1, w), bodies(2, w)) {
			t.Errorf("%s: different seeds, same stream", w.name)
		}
	}
}

// The first warm-up request must put name and zip into ana's history, every
// text must parse, and the table sizes are the workloads' stated ones.
func TestReadTables(t *testing.T) {
	for _, tc := range []struct {
		table         *readTable
		texts, inside int
	}{
		{newReadTable(5000, 45, 13, 6, true), 64, 256},
		{newReadTable(200, 1400, 400, 200, false), 2000, 256},
	} {
		if got := tc.table.reps[0].sql; got != "SELECT name, zip FROM patients WHERE name = 'person-0001'" {
			t.Errorf("first warm-up text is %q", got)
		}
		distinct := map[string]bool{}
		for _, r := range tc.table.reps {
			if _, err := reldb.Parse(r.sql); err != nil {
				t.Errorf("%q: %v", r.sql, err)
			}
			if r.subject == "ana" {
				distinct[r.sql] = true
			}
		}
		if len(distinct) != tc.texts {
			t.Errorf("%d distinct texts, want %d", len(distinct), tc.texts)
		}
		if len(tc.table.reps) != tc.texts+16 {
			t.Errorf("%d oracle slots, want %d", len(tc.table.reps), tc.texts+16)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(len(xs) - i)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and was reported")
	}
	xs = append(xs, 200)
	got, err := percentile(xs, 0.95)
	if err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if got, err := percentile(xs, 0.5); err != nil || got != 100 {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", got, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples was reported")
	}
}

func TestRoundMediansIgnoreDisturbedSegments(t *testing.T) {
	var segs []segment
	for r := 0; r < rounds; r++ {
		seg := segment{p50: 1, p95: 2, lagP95: 0.05, offered: 500, achieved: 500}
		for i := 0; i < 300; i++ {
			seg.lat = append(seg.lat, 1+float64(i)/300)
		}
		if r%3 == 0 { // a neighbour hammered the box during four segments of ten
			seg.p50, seg.p95, seg.lagP95, seg.achieved = 50, 400, 3, 300
		}
		segs = append(segs, seg)
	}
	ps, err := summarize(segs)
	if err != nil {
		t.Fatal(err)
	}
	if ps.p50 != 1 || ps.p95 != 2 || ps.achieved != 500 || ps.behind != 4 || ps.ops != 300*rounds {
		t.Errorf("summary %+v: want the quiet segments' values and 4 segments behind", ps)
	}
	if err := ps.valid(); err != nil {
		t.Errorf("a run with a prompt generator was refused: %v", err)
	}
	for i := range segs {
		segs[i].lagP95 = 1.5
	}
	if ps, _ := summarize(segs); ps.valid() == nil {
		t.Error("a generator that ran 1.5 ms late in every segment was accepted")
	}
	if _, err := summarize(segs[:1]); err == nil {
		t.Error("a pooled p99 with 3 samples beyond it was reported")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := quartileSpread(xs); got < 0.9999 || got > 1.0001 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11], n=4) == [9.75, 10.5, 11.25]
	if got, want := quartileSpread([]float64{10, 11}), 1.5/10.5; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("spread of two values = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "a1", Start: 15, End: 20, Parent: 1}, // nested: a's child, not request's
		{Name: "lone", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerNestsAndSwitchesOff(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("off"); id != -1 {
		t.Error("a span was recorded while tracing was off")
	}
	tr.setOn(true)
	tr.nextRequest(7)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	next := tr.begin("next")
	tr.end(next)
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 || tr.spans[1].RequestID != 7 {
		t.Errorf("spans %+v", tr.spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("nothing")) // the HTTP runs pass no tracer
}

func TestTimingFSPassesBytesThrough(t *testing.T) {
	tr := newTracer()
	tr.setOn(true)
	dir := t.TempDir()
	fs := timingFS{FS: wal.DirFS(dir), tr: tr}
	parent := tr.begin("audit.append")
	f, err := fs.Create("segment")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("frame one\x00\xff|frame two")
	if n, err := f.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	tr.end(parent)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := wal.DirFS(dir).ReadFile("segment")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("read back %q, %v", got, err)
	}
	var names []string
	for _, s := range tr.spans[1:] {
		names = append(names, s.Name)
		if s.Parent != parent {
			t.Errorf("%s has parent %d, want the waiting call %d", s.Name, s.Parent, parent)
		}
	}
	if !reflect.DeepEqual(names, []string{"wal.write", "wal.fsync"}) {
		t.Errorf("child spans %v", names)
	}
}

func TestVerdicts(t *testing.T) {
	lower := gate{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := gate{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		name     string
		g        gate
		old, new []float64
		want     string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, steady, []float64{1.08, 1.09, 1.07, 1.08, 1.08}, "ok"},
		{"slower beyond bound", lower, steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "regressed"},
		{"faster", lower, steady, []float64{0.5, 0.5, 0.5, 0.5, 0.5}, "ok"},
		{"noisy new side", lower, steady, []float64{0.8, 1.6, 1.0, 1.3, 0.7}, "unresolved"},
		{"noisy old side", lower, []float64{0.8, 1.6, 1.0, 1.3, 0.7}, steady, "unresolved"},
		{"throughput down", higher, []float64{1000, 1010, 990}, []float64{800, 810, 790}, "regressed"},
		{"throughput up", higher, []float64{1000, 1010, 990}, []float64{1300, 1310, 1290}, "ok"},
		{"single runs", lower, []float64{1}, []float64{1.5}, "regressed"},
	} {
		if got, _ := verdict(tc.g, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestMixedOutcomeIgnoresZipValues(t *testing.T) {
	read := &request{class: "point"}
	a := mixedOutcome(read, 200, []byte("name\tzip\nperson-0001\t10101\n"))
	b := mixedOutcome(read, 200, []byte("name\tzip\nperson-0001\t99999\n"))
	c := mixedOutcome(read, 200, []byte("name\tzip\n"))
	d := mixedOutcome(read, 200, []byte("name\tzip\nperson-0001\t10101\n# masked by privacy constraints: disease\n"))
	if a != b {
		t.Error("a rewritten zip changed a read's outcome")
	}
	if a == c || a == d {
		t.Error("a lost row or a new note did not change a read's outcome")
	}
	upd := &request{class: "update", slot: -1}
	if mixedOutcome(upd, 200, []byte("ok, 1 row(s) affected\n")) != expected(upd, nil) {
		t.Error("a one-row UPDATE is not the expected outcome")
	}
	if mixedOutcome(upd, 200, []byte("ok, 0 row(s) affected\n")) == expected(upd, nil) {
		t.Error("a zero-row UPDATE passed")
	}
}

func TestBuildOracleSettlesAndChecksStatus(t *testing.T) {
	reps := []*request{{class: "point"}, {class: "infer-deny"}, {class: "deny"}}
	var calls atomic.Int32 // the second pass sends on two lanes at once
	send := func(_ int, r *request) (string, error) {
		first := calls.Add(1) == 1
		switch {
		case r.class == "point" && first:
			return "200\nname\n# inference controller notes you can now derive: identity\n", nil
		case r.class == "point":
			return "200\nname\n", nil
		}
		return "403\nrefused\n", nil
	}
	oracle, sent, err := buildOracle(reps, 2, send)
	if err != nil || sent != 9 || oracle[0] != "200\nname\n" {
		t.Errorf("oracle %q after %d requests, %v", oracle, sent, err)
	}
	reps[2].class = "wide" // a server that refuses what it must permit agrees with itself; the class catches it
	if _, _, err := buildOracle(reps, 2, send); err == nil {
		t.Error("a refused permit-class request settled into the oracle")
	}
	flip := 0
	if _, _, err := buildOracle(reps[:1], 1, func(int, *request) (string, error) {
		flip++
		return fmt.Sprint("200\n", flip), nil
	}); err == nil {
		t.Error("outcomes that never settle were accepted")
	}
}

// The service loop sends one reference request per op, checks both replies,
// and gives up on a reference server that answers anything but its one reply.
func TestServiceLoopAlternatesAndChecksTheReference(t *testing.T) {
	var mu sync.Mutex // the two connections' handlers run on two goroutines
	var order []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		order = append(order, r.URL.Path)
		mu.Unlock()
		fmt.Fprint(w, "rows\n")
	}))
	defer srv.Close()
	l := &loader{conns: newConns(srv.URL), check: exactOutcome, oracle: []string{"200\nrows\n", "200\nother\n"}}
	defer closeConns(l.conns)
	ops := []*request{{path: "/query", slot: 0}, {path: "/query", slot: 1}}
	samples, refLat, _, err := l.service(ops, l.conns[1], "rows\n", 30*time.Millisecond)
	if err != nil || len(samples) < 2 || len(refLat) != len(samples) {
		t.Fatalf("%d samples, %d reference latencies, %v", len(samples), len(refLat), err)
	}
	for i, path := range order {
		if want := []string{"/query", "/work"}[i%2]; path != want {
			t.Fatalf("request %d went to %s, want %s", i, path, want)
		}
	}
	if !samples[0].ok || samples[1].ok {
		t.Errorf("checks: first op %v, second %v; want the oracle's verdicts true, false", samples[0].ok, samples[1].ok)
	}
	if _, _, _, err := l.service(ops, l.conns[1], "something else\n", 30*time.Millisecond); err == nil {
		t.Error("a reference server giving the wrong reply was accepted")
	}
}

func TestCPUTimeCountsThisProcess(t *testing.T) {
	self := &server{cmd: &exec.Cmd{Process: &os.Process{Pid: os.Getpid()}}}
	before, err := self.cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
	}
	after, err := self.cpuTime()
	if err != nil || after-before < 10*time.Millisecond || after-before > time.Second {
		t.Errorf("20 ms of spinning counted as %v of CPU time, %v", after-before, err)
	}
}

func TestSurvivors(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*1e6) }
	acks := ackLog{byKey: map[string][]ack{"p": {
		{"11111", at(0), at(2)},
		{"22222", at(10), at(14)}, // in flight together with the next one
		{"33333", at(12), at(13)},
	}}}
	got := acks.survivors("p")
	if got["11111"] || !got["22222"] || !got["33333"] {
		t.Errorf("survivors %v, want the two overlapping last updates", got)
	}
}

func TestSelfTestPasses(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Error(err)
	}
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []gate `json:"end_to_end"`
		PerLayer  []gate `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, listed []gate, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], code has %s [%s]", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
