package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/decisioncache"
	"webdbsec/internal/wal"
)

// Run shape, the same for every workload. A run is cut into rounds, and
// every reported number is the median of the rounds' values: this box shares
// its disk and its cores, a neighbour's burst lasts seconds, and a burst that
// slows four rounds of ten moves no median. An untraced round is a paced
// segment (40% of its time), a closed one (20%) and a service segment (40%);
// a traced round paces the same ops against the plain and then the -debug
// server.
const (
	rounds     = 10   // segments per phase and run
	preloadOps = 1000 // unmeasured closed-loop ops between warm-up and measurement
	replayOps  = 5000 // the replay answers at most this many ops
	// closedPoolRate and servicePoolRate size the pools the closed loop and
	// the service loop draw from, in ops per second of segment; a faster
	// server wraps around them.
	closedPoolRate  = 6000
	servicePoolRate = 3000
	maxLagP95       = time.Millisecond
	minAchieved     = 0.98
	// refNominalP50 is the reference request's median latency, in ms, on the
	// defining box at its median speed (it ranged from 0.39 to 0.65 over 80
	// runs). setup_s is a start's seconds scaled by refNominalP50 over the
	// reference latency measured beside it: seconds at that speed.
	refNominalP50 = 0.5
)

// runner holds what every run of one invocation shares.
type runner struct {
	binDir  string
	outDir  string
	runDir  string // scratch for data directories, removed at exit
	seed    int64
	seconds int
}

// session is one live server with its connections and settled oracle.
type session struct {
	w       *workload
	srv     *server
	dataDir string
	args    []string
	logPath string
	load    *loader
	reps    []*request
	// replied counts requests the server answered on /query and /exec; the
	// audit trail must hold at least as many records.
	replied int
}

// start runs the workload's server on a fresh data directory.
func (rn *runner) start(w *workload, debug bool) (*server, string, []string, error) {
	dataDir, err := os.MkdirTemp(rn.runDir, w.name+"-data-")
	if err != nil {
		return nil, "", nil, err
	}
	args := w.args(dataDir)
	if debug {
		args = append(args, "-debug")
	}
	srv, err := startServer(filepath.Join(rn.binDir, w.bin), args, rn.logPath(w), w.readyPath)
	return srv, dataDir, args, err
}

func (rn *runner) logPath(w *workload) string { return filepath.Join(rn.outDir, w.name+".log") }

// open starts a server, connects, and warms it up to the settled oracle.
func (rn *runner) open(w *workload, reps []*request, debug bool) (*session, error) {
	srv, dataDir, args, err := rn.start(w, debug)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, srv: srv, dataDir: dataDir, args: args, logPath: rn.logPath(w), reps: reps}
	if err := s.connect(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// connect opens the connections, picks the checker, and builds the oracle.
func (s *session) connect() error {
	conns := newConns(s.srv.base)
	s.load = &loader{conns: conns}
	check, err := s.w.newChecker(s.logPath)
	if err != nil {
		return err
	}
	if s.w.tokens {
		for _, c := range conns {
			if err := c.mint(); err != nil {
				return err
			}
		}
	}
	oracle, sent, err := buildOracle(s.reps, len(conns), func(lane int, r *request) (string, error) {
		status, body, err := conns[lane].do(r)
		if err != nil {
			return "", err
		}
		return check(r, status, body), nil
	})
	s.replied += sent
	if err != nil {
		return fmt.Errorf("%s: %w; server log tail:\n%s", s.w.name, err, tail(s.logPath))
	}
	s.load.check, s.load.oracle = check, oracle
	return nil
}

// close kills the server and removes its data.
func (s *session) close() {
	if s.load != nil {
		closeConns(s.load.conns)
	}
	s.srv.kill()
	os.RemoveAll(s.dataDir)
}

// stream is a run's generated input: the oracle's representative requests,
// the preload, each round's paced ops with their due times, and the pool the
// closed loop and the service loop draw from.
type stream struct {
	reps    []*request
	warm    []*request
	paced   [][]*request
	due     [][]time.Duration
	closed  []*request
	service []*request
}

// generate draws the run's ops. A paced segment of pacedSeg holds exactly
// rate x pacedSeg ops, so the op count of a run does not depend on how fast
// the server is.
func (rn *runner) generate(w *workload, pacedSeg, closedSeg, serviceSeg time.Duration) *stream {
	rng := newRNG(rn.seed, w.name)
	reps, next := w.build(rng)
	draw := func(n int) []*request {
		ops := make([]*request, n)
		for i := range ops {
			ops[i] = next()
		}
		return ops
	}
	st := &stream{reps: reps, warm: draw(preloadOps)}
	arrivals := rand.New(rand.NewSource(rng.Int63()))
	n := int(w.rate * pacedSeg.Seconds())
	for r := 0; r < rounds; r++ {
		st.paced = append(st.paced, draw(n))
		st.due = append(st.due, poissonSchedule(arrivals, w.rate, n))
	}
	st.closed = draw(int(closedPoolRate * closedSeg.Seconds() * rounds))
	st.service = draw(int(servicePoolRate * serviceSeg.Seconds() * rounds))
	return st
}

// segment is one paced segment's numbers.
type segment struct {
	p50, p95, lagP95  float64 // ms; latency from due time
	offered, achieved float64 // op/s
	lat               []float64
	bytes, failed     int
}

// pacedSegment drives one open-loop segment and reduces its samples.
func (s *session) pacedSegment(ops []*request, due []time.Duration, acks *ackLog) (segment, error) {
	samples, t0 := s.load.paced(ops, due)
	s.replied += len(samples)
	acks.add(samples, t0)
	seg := segment{failed: failures(samples)}
	last := time.Duration(0)
	var lag []float64
	for _, sm := range samples {
		seg.lat = append(seg.lat, float64(sm.end-sm.due)/1e6)
		lag = append(lag, float64(sm.lag)/1e6)
		seg.bytes += sm.bytes
		last = max(last, sm.end)
	}
	var err error
	if seg.p50, err = percentile(seg.lat, 0.50); err != nil {
		return seg, err
	}
	if seg.p95, err = percentile(seg.lat, 0.95); err != nil {
		return seg, err
	}
	if seg.lagP95, err = percentile(lag, 0.95); err != nil {
		return seg, err
	}
	// Offered is the schedule's own rate — a Poisson stream's last arrival
	// wanders around the nominal length — and achieved counts until the
	// last reply.
	schedule := due[len(due)-1]
	seg.offered = float64(len(samples)) / schedule.Seconds()
	seg.achieved = float64(len(samples)) / max(last, schedule).Seconds()
	return seg, nil
}

// pacedStats sums a phase's segments up.
type pacedStats struct {
	p50, p95, lagP95  float64 // ms: medians of the segments' percentiles
	p99               float64 // ms: pooled over the phase
	offered, achieved float64 // op/s: the median segment's
	behind            int     // segments that achieved under 98% of their offered rate
	bytesPerOp        float64
	ops, failed       int
}

func summarize(segs []segment) (pacedStats, error) {
	var ps pacedStats
	var p50s, p95s, lags, offered, achieved, lat []float64
	bytes := 0
	for _, seg := range segs {
		p50s, p95s, lags = append(p50s, seg.p50), append(p95s, seg.p95), append(lags, seg.lagP95)
		offered, achieved = append(offered, seg.offered), append(achieved, seg.achieved)
		lat = append(lat, seg.lat...)
		bytes += seg.bytes
		ps.failed += seg.failed
		if seg.achieved < minAchieved*seg.offered {
			ps.behind++
		}
	}
	ps.ops = len(lat)
	ps.p50, ps.p95, ps.lagP95 = median(p50s), median(p95s), median(lags)
	ps.offered, ps.achieved = median(offered), median(achieved)
	ps.bytesPerOp = float64(bytes) / float64(ps.ops)
	var err error
	ps.p99, err = percentile(lat, 0.99)
	return ps, err
}

// valid applies the generator's own validity rule: a generator that sent its
// ops late in most segments measured itself, and the run must not be
// reported. Its lag, like everything else, is judged by the median segment:
// pooled over a run the p95 reached 0.6-0.7 ms in 4 of 80 runs on the
// defining box, each during a slow spell of the box, and a hard limit that
// close would fail a run in a hundred for the box's sake.
func (ps pacedStats) valid() error {
	if ps.lagP95 > float64(maxLagP95)/1e6 {
		return fmt.Errorf("invalid run: generator lag p95 %.3f ms exceeds %v", ps.lagP95, maxLagP95)
	}
	return nil
}

// warnBehind says so when the server fell behind the offered rate. That is a
// result, not an invalid run — latency from due time already contains the
// backlog, and gen.achieved_rps shows it — but in most segments it means the
// latencies are those of a growing queue, not of the rate.
func (ps pacedStats) warnBehind(w *workload) {
	if ps.behind > 0 {
		progress("%s: WARNING: %d of %d paced segments achieved less than %.0f%% of the offered %.0f op/s",
			w.name, ps.behind, rounds, minAchieved*100, w.rate)
	}
}

// serviceSegment is one service segment's numbers: the server's and the
// reference server's median latency and CPU time per request.
type serviceSegment struct {
	p50, refP50 float64 // ms
	cpu, refCPU float64 // us per request
	ops, failed int
}

// cpuTimes reads the CPU time of the server and of the reference server.
func cpuTimes(srv, ref *server) (cpu, refCPU time.Duration, err error) {
	if cpu, err = srv.cpuTime(); err == nil {
		refCPU, err = ref.cpuTime()
	}
	return cpu, refCPU, err
}

// serviceSegment drives one service segment, reading both servers' CPU time
// around it.
func (s *session) serviceSegment(ops []*request, ref *reference, dur time.Duration, acks *ackLog) (serviceSegment, error) {
	var seg serviceSegment
	cpu0, ref0, err := cpuTimes(s.srv, ref.srv)
	if err != nil {
		return seg, err
	}
	samples, refLat, t0, err := s.load.service(ops, ref.conn, ref.want, dur)
	if err != nil {
		return seg, err
	}
	cpu1, ref1, err := cpuTimes(s.srv, ref.srv)
	if err != nil {
		return seg, err
	}
	s.replied += len(samples)
	acks.add(samples, t0)
	seg.ops, seg.failed = len(samples), failures(samples)
	lat := make([]float64, len(samples))
	for i, sm := range samples {
		lat[i] = float64(sm.end-sm.start) / 1e6
	}
	if seg.p50, err = percentile(lat, 0.50); err != nil {
		return seg, err
	}
	if seg.refP50, err = percentile(refLat, 0.50); err != nil {
		return seg, err
	}
	seg.cpu = float64((cpu1 - cpu0).Microseconds()) / float64(seg.ops)
	seg.refCPU = float64((ref1 - ref0).Microseconds()) / float64(seg.ops)
	return seg, nil
}

// reference is the running reference server, the connection to it, and the
// reply its one request must get.
type reference struct {
	srv  *server
	conn *conn
	want string
}

func (rn *runner) startReference() (*reference, error) {
	srv, err := startServer(filepath.Join(rn.binDir, "refserver"), nil, filepath.Join(rn.outDir, "refserver.log"), "/ready")
	if err != nil {
		return nil, err
	}
	ref := &reference{srv: srv, conn: newConns(srv.base)[0]}
	status, body, err := ref.conn.do(refRequest)
	if err != nil || status != 200 || len(body) == 0 {
		ref.close()
		return nil, fmt.Errorf("reference server: status %d, %d bytes, %v", status, len(body), err)
	}
	ref.want = string(body)
	return ref, nil
}

func (ref *reference) close() {
	ref.conn.client.CloseIdleConnections()
	ref.srv.kill()
}

// endToEnd is the untraced run: set-up, warm-up, then rounds of a paced, a
// closed and a service segment.
func (rn *runner) endToEnd(w *workload) (*result, error) {
	res := newResult(w, 0, endToEnd, ungated)
	total := time.Duration(rn.seconds) * time.Second
	pacedSeg, closedSeg, serviceSeg := total*4/10/rounds, total*2/10/rounds, total*4/10/rounds
	st := rn.generate(w, pacedSeg, closedSeg, serviceSeg)

	s, err := rn.open(w, st.reps, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ref, err := rn.startReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()

	var acks ackLog
	failed := s.preload(st.warm, &acks)
	var segs []segment
	var rates, p50Rel, cpuRel, p50, cpu, refP50, refCPU, setups, setupsRaw []float64
	rss, closedOps, serviceOps := 0.0, 0, 0
	for r := 0; r < rounds; r++ {
		seg, err := s.pacedSegment(st.paced[r], st.due[r], &acks)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		if r == 0 {
			// The ops so far are a fixed count (warm-up, preload, one paced
			// segment), so the server's memory compares across commits.
			if rss, err = s.srv.rssMiB(); err != nil {
				return nil, err
			}
		}
		pool := st.closed[r*len(st.closed)/rounds:]
		closed, t0 := s.load.closed(pool, closedSeg)
		s.replied += len(closed)
		acks.add(closed, t0)
		failed += failures(closed)
		closedOps += len(closed)
		last := closedSeg
		for _, sm := range closed {
			last = max(last, sm.end)
		}
		rates = append(rates, float64(len(closed))/last.Seconds())

		// One more server is started on fresh data and killed again, for its
		// set-up time, right before the service segment whose reference
		// latency says how fast the box was just then.
		fresh, dataDir, _, err := rn.start(w, false)
		if err != nil {
			return nil, err
		}
		fresh.kill()
		os.RemoveAll(dataDir)
		sv, err := s.serviceSegment(st.service[r*len(st.service)/rounds:], ref, serviceSeg, &acks)
		if err != nil {
			return nil, err
		}
		setupsRaw = append(setupsRaw, fresh.setup.Seconds())
		setups = append(setups, fresh.setup.Seconds()*refNominalP50/sv.refP50)
		failed += sv.failed
		serviceOps += sv.ops
		p50Rel, cpuRel = append(p50Rel, sv.p50/sv.refP50), append(cpuRel, sv.cpu/sv.refCPU)
		p50, cpu = append(p50, sv.p50), append(cpu, sv.cpu)
		refP50, refCPU = append(refP50, sv.refP50), append(refCPU, sv.refCPU)
	}
	ps, err := summarize(segs)
	if err != nil {
		return nil, err
	}

	res.Attempted = len(st.warm) + ps.ops + closedOps + serviceOps
	res.Failed = ps.failed + failed
	if w.writes {
		_, lost, err := s.restartCheck(&acks)
		if err != nil {
			return nil, err
		}
		res.Failed += lost
	}
	res.Correct = res.Failed == 0
	res.set("service_p50_vs_ref", median(p50Rel))
	res.set("server_cpu_vs_ref", median(cpuRel))
	res.set("server_rss_mb", rss)
	res.set("setup_s", median(setups))
	res.set("setup_raw_s", median(setupsRaw))
	res.set("service_p50_ms", median(p50))
	res.set("server_cpu_us_per_op", median(cpu))
	res.set("ref_p50_ms", median(refP50))
	res.set("ref_cpu_us_per_op", median(refCPU))
	res.set("ops_per_s", median(rates))
	res.set("lat_p50_ms", ps.p50)
	res.set("lat_p95_ms", ps.p95)
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted))
	progress("%s: %d paced + %d closed + %d service ops, lag p95 %.3f ms; per round service p50 %.3g ms (reference %.3g ms), CPU %.4g us/op (reference %.4g), set-up %.3g s",
		w.name, ps.ops, closedOps, serviceOps, ps.lagP95, p50, refP50, cpu, refCPU, setupsRaw)
	ps.warnBehind(w)
	return res, ps.valid()
}

// preload sends a fixed number of unmeasured ops through the closed loop and
// returns how many failed their check.
func (s *session) preload(ops []*request, acks *ackLog) int {
	samples, t0 := s.load.closed(ops, 0)
	s.replied += len(samples)
	acks.add(samples, t0)
	return failures(samples)
}

// ack is one acknowledged UPDATE.
type ack struct {
	zip        string
	start, end time.Time
}

// ackLog keeps, per patient, the UPDATEs the server acknowledged.
type ackLog struct{ byKey map[string][]ack }

func (l *ackLog) add(samples []sample, t0 time.Time) {
	if l.byKey == nil {
		l.byKey = map[string][]ack{}
	}
	for _, sm := range samples {
		if sm.req.class == "update" && sm.ok {
			l.byKey[sm.req.key] = append(l.byKey[sm.req.key], ack{sm.req.zip, t0.Add(sm.start), t0.Add(sm.end)})
		}
	}
}

// survivors returns the values key may hold after a crash: those of
// acknowledged updates that no other acknowledged update on the key started
// after. Two updates in flight at once may have landed in either order.
func (l *ackLog) survivors(key string) map[string]bool {
	ok := map[string]bool{}
	for _, u := range l.byKey[key] {
		superseded := false
		for _, v := range l.byKey[key] {
			if v.start.After(u.end) {
				superseded = true
				break
			}
		}
		if !superseded {
			ok[u.zip] = true
		}
	}
	return ok
}

// restartCheck kills the server without warning, restarts it on the same
// data directory, and checks that nothing acknowledged was lost: every
// updated patient holds a surviving value and the audit trail has a record
// for every answered request. A server that refuses its own audit chain
// fails to start, which fails the run. It returns exec-to-first-reply time.
func (s *session) restartCheck(acks *ackLog) (time.Duration, int, error) {
	closeConns(s.load.conns)
	s.srv.kill()
	srv, err := startServer(s.srv.cmd.Path, s.args, s.logPath, s.w.readyPath)
	if err != nil {
		return 0, 0, fmt.Errorf("restart after kill: %w", err)
	}
	s.srv = srv
	c := newConns(srv.base)[0]
	defer c.client.CloseIdleConnections()
	lost := 0
	keys := make([]string, 0, len(acks.byKey))
	for k := range acks.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		q := &request{path: "/query", body: form("ana", []string{"analyst"}, "SELECT name, zip FROM patients WHERE name = '"+key+"'")}
		status, body, err := c.do(q)
		if err != nil {
			return 0, 0, err
		}
		lines := strings.Split(string(body), "\n")
		name, zip, _ := strings.Cut(lines[min(1, len(lines)-1)], "\t")
		if may := acks.survivors(key); status != 200 || name != key || !may[zip] {
			progress("%s: lost write: %s holds %q after restart, acknowledged survivors %v", s.w.name, key, zip, may)
			lost++
		}
	}
	status, body, err := c.do(&request{path: "/audit"})
	if err != nil {
		return 0, 0, err
	}
	if records := strings.Count(string(body), "\n"); status != 200 || records < s.replied {
		progress("%s: audit trail has %d records after restart, %d requests were answered", s.w.name, records, s.replied)
		lost++
	}
	return srv.setup, lost, nil
}

// traced is the separate traced run that yields the per-layer metrics.
func (rn *runner) traced(w *workload) (*result, error) {
	res := newResult(w, 1, perLayer, nil)
	phase := time.Duration(rn.seconds) * time.Second * 3 / 10
	st := rn.generate(w, phase/rounds, 0, 0)

	// (1) The untraced reference and (2) the server counters: a plain server
	// and one started with -debug take the same paced segments turn by turn,
	// so a slow spell of the box falls on both. The -debug server's
	// /debug/vars are read before and after its segments.
	plain, err := rn.open(w, st.reps, false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	dbg, err := rn.open(w, st.reps, true)
	if err != nil {
		return nil, err
	}
	defer dbg.close()
	oracle := plain.load.oracle
	mismatch := 0
	for i := range oracle {
		if dbg.load.oracle[i] != oracle[i] {
			mismatch++
		}
	}
	var plainAcks, acks ackLog
	failed := plain.preload(st.warm, &plainAcks) + dbg.preload(st.warm, &acks)
	disk0, err := dirBytes(plain.dataDir)
	if err != nil {
		return nil, err
	}
	before, err := dbg.srv.debugVars()
	if err != nil {
		return nil, err
	}
	var refSegs, cntSegs []segment
	var overhead []float64
	for r := 0; r < rounds; r++ {
		a, err := plain.pacedSegment(st.paced[r], st.due[r], &plainAcks)
		if err != nil {
			return nil, err
		}
		b, err := dbg.pacedSegment(st.paced[r], st.due[r], &acks)
		if err != nil {
			return nil, err
		}
		refSegs, cntSegs = append(refSegs, a), append(cntSegs, b)
		overhead = append(overhead, (b.p50-a.p50)/a.p50)
	}
	after, err := dbg.srv.debugVars()
	if err != nil {
		return nil, err
	}
	disk1, err := dirBytes(plain.dataDir)
	if err != nil {
		return nil, err
	}
	plain.close()
	ref, err := summarize(refSegs)
	if err != nil {
		return nil, err
	}
	cnt, err := summarize(cntSegs)
	if err != nil {
		return nil, err
	}
	lost := 0
	if w.durable {
		var recovery time.Duration
		if recovery, lost, err = dbg.restartCheck(&acks); err != nil {
			return nil, err
		}
		res.set("wal.recovery_ms", float64(recovery)/1e6)
	}
	dbg.close()
	if err := counters(res, w, before, after, float64(cnt.ops)); err != nil {
		return nil, err
	}

	// (3) The in-process stage replay of the same ops.
	tr := newTracer()
	replayDir, err := os.MkdirTemp(rn.runDir, w.name+"-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(replayDir)
	var stk stack
	check := plain.load.check
	if w.bin == "uddiserver" {
		u, err := newUDDIStack(tr)
		if err != nil {
			return nil, err
		}
		stk, check = u, inquiryChecker(u.dir, tr)
	} else if stk, err = newDBStack(w, replayDir, tr); err != nil {
		return nil, err
	}
	var ops []*request
	for _, seg := range st.paced {
		ops = append(ops, seg...)
	}
	n, err := replay(stk, check, st.reps, ops, oracle, tr, replayOps, phase)
	stk.close()
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(rn.outDir, "trace-"+w.name+".json")
	if err := tr.writeFile(tracePath); err != nil {
		return nil, err
	}
	handlerUS, err := stages(res, tr.spans, n)
	if err != nil {
		return nil, err
	}

	res.set("gen.sched_lag_p95_ms", ref.lagP95)
	res.set("gen.offered_rps", ref.offered)
	res.set("gen.achieved_rps", ref.achieved)
	res.set("gen.lat_p50_ms", ref.p50)
	res.set("gen.lat_p95_ms", ref.p95)
	res.set("gen.lat_p99_ms", ref.p99)
	res.set("http.residual_us", ref.p50*1e3-handlerUS)
	bytesMetric := "http.response_bytes_per_op"
	if w.bin == "uddiserver" {
		bytesMetric = "wsa.response_bytes_per_op"
	}
	res.set(bytesMetric, ref.bytesPerOp)
	res.set("disk.bytes_per_op", float64(disk1-disk0)/float64(ref.ops))
	res.set("trace.mismatch", float64(mismatch+n.mismatch))
	res.set("trace.overhead_share", median(overhead))

	res.Attempted = 2*len(st.warm) + ref.ops + cnt.ops + n.ops
	res.Failed = failed + ref.failed + cnt.failed + mismatch + n.mismatch + lost
	res.Correct = res.Failed == 0
	progress("%s: traced: %d+%d paced ops, %d replayed (%d spans in %s), p50 %.3f ms untraced, %.3f ms with -debug",
		w.name, ref.ops, cnt.ops, n.ops, len(tr.spans), tracePath, ref.p50, cnt.p50)
	ref.warnBehind(w)
	if err := ref.valid(); err != nil {
		return res, err
	}
	return res, cnt.valid()
}

// varsPair decodes one published variable from the /debug/vars snapshots
// taken before and after the paced ops. ok is false when the server does not
// publish it (no WAL without -data, no token gate with -tokenttl 0).
func varsPair[T any](before, after map[string]json.RawMessage, name string) (b, a T, ok bool, err error) {
	rawB, okB := before[name]
	rawA, okA := after[name]
	if !okB || !okA {
		return b, a, false, nil
	}
	if err = json.Unmarshal(rawB, &b); err == nil {
		err = json.Unmarshal(rawA, &a)
	}
	if err != nil {
		return b, a, false, fmt.Errorf("/debug/vars %s: %w", name, err)
	}
	return b, a, true, nil
}

// counters turns the /debug/vars deltas around ops paced ops into ratios.
func counters(res *result, w *workload, before, after map[string]json.RawMessage, ops float64) error {
	rate := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	mb, ma, ok, err := varsPair[runtime.MemStats](before, after, "memstats")
	if err != nil || !ok {
		return fmt.Errorf("memstats missing from /debug/vars: %v", err)
	}
	res.set("server.allocs_per_op", float64(ma.Mallocs-mb.Mallocs)/ops)
	res.set("server.alloc_bytes_per_op", float64(ma.TotalAlloc-mb.TotalAlloc)/ops)

	if w.bin == "uddiserver" {
		b, a, ok, err := varsPair[decisioncache.EngineStats](before, after, "uddiserver.decision_cache")
		if err != nil || !ok {
			return fmt.Errorf("uddiserver.decision_cache missing from /debug/vars: %v", err)
		}
		res.set("decisioncache.hit_rate", rate(a.Labels.Hits-b.Labels.Hits, a.Labels.Misses-b.Labels.Misses))
		return nil
	}
	pb, pa, ok, err := varsPair[decisioncache.Stats](before, after, "securedb.parse_cache")
	if err != nil || !ok {
		return fmt.Errorf("securedb.parse_cache missing from /debug/vars: %v", err)
	}
	res.set("reldb.parse_cache_hit_rate", rate(pa.Hits-pb.Hits, pa.Misses-pb.Misses))

	gb, ga, ok, err := varsPair[authtoken.GateStats](before, after, "securedb.authtoken")
	if err != nil {
		return err
	}
	if ok {
		res.set("authtoken.fast_path_share", float64(ga.FastPath-gb.FastPath)/ops)
		res.set("authtoken.mints_per_op", float64(ga.Mint.Minted-gb.Mint.Minted)/ops)
	}

	var fsyncs, bytes, frames, batches uint64
	for _, name := range []string{"securedb.wal.db", "securedb.wal.audit"} {
		b, a, ok, err := varsPair[wal.Stats](before, after, name)
		if err != nil {
			return err
		}
		if ok {
			fsyncs += a.Fsyncs - b.Fsyncs
			bytes += a.BytesWritten - b.BytesWritten
			frames += a.BatchFrames - b.BatchFrames
			batches += a.Batches - b.Batches
		}
	}
	res.set("wal.fsyncs_per_op", float64(fsyncs)/ops)
	res.set("wal.bytes_per_op", float64(bytes)/ops)
	if batches > 0 {
		res.set("wal.frames_per_batch", float64(frames)/float64(batches))
	}
	return nil
}

// stages turns the replay's spans and counts into the per-stage metrics and
// returns the median request's total stage time, in microseconds.
func stages(res *result, spans []span, n replayCounts) (float64, error) {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	selfByName := map[string][]float64{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e3)
		selfByName[s.Name] = append(selfByName[s.Name], float64(self[i])/1e3)
	}
	// A stage too rare in this workload for a percentile reads 0.
	q := func(xs []float64, p float64) float64 {
		v, err := percentile(append([]float64(nil), xs...), p)
		if err != nil {
			return 0
		}
		return v
	}
	for _, m := range []struct {
		metric, span string
		p            float64
		self         bool
	}{
		{"authtoken.authenticate_us", "authtoken.authenticate", 0.5, false},
		{"sysr.check_us", "probe.sysr.check", 0.5, false},
		{"reldb.exec_us", "reldb.exec", 0.5, false},
		{"reldb.exec_us_p95", "reldb.exec", 0.95, false},
		{"reldb.parse_us", "probe.reldb.parse", 0.5, false},
		{"reldb.update_us", "reldb.update", 0.5, false},
		{"privacy.filter_us", "privacy.filter", 0.5, false},
		{"inference.check_us", "inference.check", 0.5, false},
		{"audit.append_us", "audit.append", 0.5, false},
		{"audit.append_us_p95", "audit.append", 0.95, false},
		{"audit.self_us", "audit.append", 0.5, true},
		{"wal.fsync_us", "wal.fsync", 0.5, false},
		{"wal.fsync_us_p95", "wal.fsync", 0.95, false},
		{"wal.write_us", "wal.write", 0.5, false},
		{"wsa.decode_us", "wsa.decode", 0.5, false},
		{"wsa.encode_us", "wsa.encode", 0.5, false},
		{"uddi.query_us", "uddi.query", 0.5, false},
		{"uddi.query_us_p95", "uddi.query", 0.95, false},
		{"merkle.verify_us", "merkle.verify", 0.5, false},
	} {
		src := byName
		if m.self {
			src = selfByName
		}
		res.set(m.metric, q(src[m.span], m.p))
	}
	if n.ops == 0 {
		return 0, fmt.Errorf("replay answered no ops")
	}
	share := func(part, whole int) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	res.set("reldb.rows_scanned_per_row_returned", share(n.scanned, n.returned))
	res.set("privacy.masked_share", share(n.masked, n.permitted))
	res.set("inference.deny_share", share(n.inferDeny, n.ops))
	res.set("merkle.proof_bytes_per_op", share(n.proofBytes, n.inquiries))

	// A request's handler time is the sum of its top-level spans, probes
	// aside; the median over requests is what http.residual_us subtracts.
	// (Summing per-stage medians instead would count a stage that only some
	// requests cross, like reldb.update, against every request.)
	perRequest := map[int]float64{}
	for _, s := range spans {
		if s.Parent < 0 && !strings.HasPrefix(s.Name, "probe.") {
			perRequest[s.RequestID] += float64(s.End-s.Start) / 1e3
		}
	}
	totals := make([]float64, 0, len(perRequest))
	for _, t := range perRequest {
		totals = append(totals, t)
	}
	return median(totals), nil
}
