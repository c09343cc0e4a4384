// Command bench is the repository's benchmark: it drives the real securedb
// and uddiserver binaries over HTTP on four named workloads, checks every
// reply, and reports end-to-end metrics (untraced run) and per-layer metrics
// (a separate traced run). See README.md beside this file; run it through
// run.sh, which builds the binaries first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// environment is recorded in every result file: the numbers mean little
// without the box they were taken on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// resultFile is what -json writes: one or more sets of results.
type resultFile struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Sets    [][]*result `json:"sets"`
}

func main() { os.Exit(run()) }

func run() (code int) {
	workloadName := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Int64("seed", 1, "seeds every generated input")
	seconds := flag.Int("seconds", 22, "measured seconds per run")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	jsonPath := flag.String("json", "", "also write the results to this file")
	outDir := flag.String("out", filepath.Join(".bench_build", "out"), "directory for server logs and trace-<workload>.json")
	binDir := flag.String("bin", "", "directory holding the securedb and uddiserver binaries (run.sh sets it)")
	selftest := flag.Bool("selftest", false, "check that the output oracle catches a flipped byte, a wrong status and a tampered Merkle view")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	repeat := flag.Int("repeat", 1, "run this many full sets and compare them with one another")
	flag.Parse()

	// Children and their data go with the benchmark on every exit path:
	// return, panic (guard), SIGINT and SIGTERM.
	defer guard()
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *selftest:
		if err := selfTest(); err != nil {
			return fail(err)
		}
		fmt.Println("selftest ok: flipped body byte, wrong status and tampered Merkle view all caught")
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("usage: -compare old.json new.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	if *seconds < 10 {
		return fail(fmt.Errorf("-seconds %d: a run needs at least 10 s for its percentiles", *seconds))
	}
	targets := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		targets = []*workload{w}
	}
	if *binDir == "" {
		return fail(fmt.Errorf("-bin is required: run the benchmark through bench/run.sh, which builds the servers"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	runDir, err := os.MkdirTemp(filepath.Dir(filepath.Clean(*outDir)), "run-")
	if err != nil {
		return fail(err)
	}
	live.Lock()
	live.scratch = runDir
	live.Unlock()
	rn := &runner{binDir: *binDir, outDir: *outDir, runDir: runDir, seed: *seed, seconds: *seconds}

	file := &resultFile{
		Env:  environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH},
		Seed: *seed, Seconds: *seconds,
	}
	var last *result
	for set := 0; set < *repeat; set++ {
		var results []*result
		for _, w := range targets {
			for _, side := range []int{0, 1} {
				if *trace >= 0 && *trace != side {
					continue
				}
				os.Truncate(rn.logPath(w), 0) // one run's server log per file; absent on the first run
				var res *result
				if side == 0 {
					res, err = rn.endToEnd(w)
				} else {
					res, err = rn.traced(w)
				}
				if err != nil {
					return fail(fmt.Errorf("%s: %w", w.name, err))
				}
				printResult(res)
				results = append(results, res)
				last = res
			}
		}
		file.Sets = append(file.Sets, results)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if *repeat > 1 {
		if !compareSets(os.Stdout, file.Sets) {
			code = 1
		}
	}
	// One workload, one side: the last line is the driver's result object.
	if *workloadName != "" && *trace >= 0 && *repeat == 1 {
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	for _, results := range file.Sets {
		for _, r := range results {
			if !r.Correct {
				code = 1
			}
		}
	}
	return code
}

// printResult prints one line per metric: workload metric value unit.
func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
	for _, d := range ungated {
		if m, ok := r.Ungated[d.name]; ok {
			fmt.Printf("%s %s %.6g %s (ungated)\n", r.Workload, d.name, m.Value, m.Unit)
		}
	}
	if !r.Correct {
		fmt.Printf("%s INCORRECT: %d of %d ops failed their check\n", r.Workload, r.Failed, r.Attempted)
	}
}
