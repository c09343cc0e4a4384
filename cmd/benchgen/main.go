// Command benchgen runs the synthetic experiment suite (DESIGN.md, E1–E16,
// E20, E22; the repository benchmark under bench/ answers the rest) and
// prints one table per experiment — the rows recorded in EXPERIMENTS.md.
// Unlike the testing.B benchmarks (which measure time),
// benchgen also reports the quality metrics: mining precision/recall under
// randomization, auxiliary-hash counts of Merkle proofs, inference
// block rates, auction throughput under contention.
//
// Usage:
//
//	benchgen              # run everything
//	benchgen -run E6      # run one experiment
//	benchgen -quick       # smaller workloads (CI-friendly)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

var experiments = []struct {
	id   string
	desc string
	run  func(quick bool)
}{
	{"E1", "access decision throughput: identity vs role vs credential", runE1},
	{"E2", "Author-X view computation vs document size and granularity", runE2},
	{"E3", "secure dissemination: keys and encryption cost vs policy configurations", runE3},
	{"E4", "Merkle verification vs full signature; pruning sweep", runE4},
	{"E5", "UDDI inquiry: two-party vs trusted vs untrusted third party", runE5},
	{"E6", "privacy-preserving mining: accuracy vs randomization level", runE6},
	{"E7", "multiparty secure-sum mining vs centralized", runE7},
	{"E8", "inference controller: overhead and leak-block rate", runE8},
	{"E9", "semantic RDF filtering throughput", runE9},
	{"E10", "security-aware query rewrite overhead", runE10},
	{"E11", "secure channel throughput vs plaintext", runE11},
	{"E12", "P3P preference matching and delegation chains", runE12},
	{"E13", "flexible security policy: latency vs strength", runE13},
	{"E14", "auction transaction model: open-bid vs locking", runE14},
	{"E15", "federated query scaling and clearance filtering", runE15},
	{"E16", "provenance-aware RDFS inference vs plain inference", runE16},
	{"E20", "WAL-shipped replication: commit latency, catch-up lag, failover time vs follower count", runE20},
	{"E22", "stateless token fast path: wallet evaluation vs single-verification tokens over HTTP", runE22},
}

func main() {
	runFlag := flag.String("run", "", "experiment id to run (default: all)")
	quick := flag.Bool("quick", false, "use smaller workloads")
	snapshotFlag := flag.String("snapshot", "", "write the JSON record of -run E20 or E22 to this file and exit")
	flag.Parse()

	if *snapshotFlag != "" {
		var err error
		switch strings.ToUpper(*runFlag) {
		case "E20":
			err = writeSnapshotE20(*snapshotFlag, *quick)
		case "E22":
			err = writeSnapshotE22(*snapshotFlag, *quick)
		default:
			err = fmt.Errorf("no snapshot writer for experiment %q", *runFlag)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot written to %s\n", *snapshotFlag)
		return
	}

	ran := false
	for _, e := range experiments {
		if *runFlag != "" && !strings.EqualFold(*runFlag, e.id) {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.desc)
		start := time.Now()
		e.run(*quick)
		fmt.Printf("    (%.1fs)\n\n", time.Since(start).Seconds())
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchgen: unknown experiment %q\n", *runFlag)
		os.Exit(1)
	}
}

// table prints an aligned table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) print() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// measure times fn over enough iterations for a stable per-op figure.
func measure(minIters int, fn func()) time.Duration {
	iters := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond || iters < minIters {
		fn()
		iters++
	}
	return time.Since(start) / time.Duration(iters)
}

func dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
