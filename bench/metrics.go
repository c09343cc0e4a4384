package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// lists (a test keeps the two in step); bounds live only there.
type metricDef struct{ name, unit string }

// endToEnd is what BENCHMARK.json gates. The two _vs_ref metrics are the
// service segments' latency and server CPU time per op as multiples of the
// reference server's, measured in the same seconds: the box's speed drifts
// by a third over minutes, and a ratio of two services slowed together holds
// where either alone does not; setup_s is scaled by the same yardstick.
// README.md, "Why relative", has the numbers.
var endToEnd = []metricDef{
	{"service_p50_vs_ref", "ratio"},
	{"server_cpu_vs_ref", "ratio"},
	{"server_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// ungated are the untraced run's other numbers: the absolute values behind
// the two ratios, and throughput and latency under two connections. No bound
// applies to them; they are printed and kept in result files, but the
// driver's result object carries exactly BENCHMARK.json's list.
var ungated = []metricDef{
	{"service_p50_ms", "ms"},
	{"server_cpu_us_per_op", "us/op"},
	{"ref_p50_ms", "ms"},
	{"ref_cpu_us_per_op", "us/op"},
	{"setup_raw_s", "s"},
	{"ops_per_s", "op/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"failed_share", "ratio"},
}

// perLayer is every layer metric, reported by every workload; a layer the
// workload does not cross reads 0.
var perLayer = []metricDef{
	{"gen.sched_lag_p95_ms", "ms"},
	{"gen.offered_rps", "op/s"},
	{"gen.achieved_rps", "op/s"},
	{"gen.lat_p50_ms", "ms"},
	{"gen.lat_p95_ms", "ms"},
	{"gen.lat_p99_ms", "ms"},
	{"http.residual_us", "us"},
	{"http.response_bytes_per_op", "B/op"},
	{"disk.bytes_per_op", "B/op"},
	{"server.allocs_per_op", "1/op"},
	{"server.alloc_bytes_per_op", "B/op"},
	{"authtoken.authenticate_us", "us"},
	{"authtoken.fast_path_share", "ratio"},
	{"authtoken.mints_per_op", "1/op"},
	{"sysr.check_us", "us"},
	{"reldb.exec_us", "us"},
	{"reldb.exec_us_p95", "us"},
	{"reldb.parse_us", "us"},
	{"reldb.parse_cache_hit_rate", "ratio"},
	{"reldb.rows_scanned_per_row_returned", "ratio"},
	{"reldb.update_us", "us"},
	{"privacy.filter_us", "us"},
	{"privacy.masked_share", "ratio"},
	{"inference.check_us", "us"},
	{"inference.deny_share", "ratio"},
	{"audit.append_us", "us"},
	{"audit.append_us_p95", "us"},
	{"audit.self_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsync_us_p95", "us"},
	{"wal.write_us", "us"},
	{"wal.fsyncs_per_op", "1/op"},
	{"wal.frames_per_batch", "ratio"},
	{"wal.bytes_per_op", "B/op"},
	{"wal.recovery_ms", "ms"},
	{"wsa.decode_us", "us"},
	{"wsa.encode_us", "us"},
	{"wsa.response_bytes_per_op", "B/op"},
	{"uddi.query_us", "us"},
	{"uddi.query_us_p95", "us"},
	{"decisioncache.hit_rate", "ratio"},
	{"merkle.verify_us", "us"},
	{"merkle.proof_bytes_per_op", "B/op"},
	{"trace.mismatch", "count"},
	{"trace.overhead_share", "ratio"},
}

// metric is one measured value in a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the driver's result object plus the
// workload's name and which side (untraced or traced) it is.
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Ungated   map[string]metric `json:"ungated,omitempty"`
}

// newResult starts a result with every metric of defs, and every ungated
// number of extra, at 0.
func newResult(w *workload, trace int, defs, extra []metricDef) *result {
	r := &result{Workload: w.name, Trace: trace, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	if len(extra) > 0 {
		r.Ungated = map[string]metric{}
	}
	for _, d := range extra {
		r.Ungated[d.name] = metric{Unit: d.unit}
	}
	return r
}

// set records a value for a metric newResult declared.
func (r *result) set(name string, v float64) {
	in := r.Metrics
	if _, ok := in[name]; !ok {
		in = r.Ungated
	}
	m, ok := in[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m.Value = v
	in[name] = m
}
