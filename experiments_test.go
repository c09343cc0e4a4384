package webdbsec

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	experimentRow = regexp.MustCompile(`^\| ([EA]\d+) \|.*\| ([^|]*) \|$`)
	testName      = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testDecl      = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// declaredTests returns the name of every test, benchmark and fuzz target
// a _test.go file declares, outside the benchmark module and testdata.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestExperimentsNameTheirTests keeps EXPERIMENTS.md's table honest: every
// experiment and ablation has a row, and a row's last column names a test,
// benchmark or fuzz target that exists, or reads "retired" and says what
// answers its question now. Any name a row mentions must exist.
func TestExperimentsNameTheirTests(t *testing.T) {
	src, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := declaredTests(t)
	rows := make(map[string]string)
	for _, line := range strings.Split(string(src), "\n") {
		if m := experimentRow.FindStringSubmatch(line); m != nil {
			if _, dup := rows[m[1]]; dup {
				t.Errorf("EXPERIMENTS.md has two rows for %s", m[1])
			}
			rows[m[1]] = strings.TrimSpace(m[2])
		}
	}
	var want []string
	for i := 1; i <= 22; i++ {
		want = append(want, fmt.Sprintf("E%d", i))
	}
	want = append(want, "A1", "A2", "A3", "A4")
	for _, id := range want {
		cell, ok := rows[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no row for %s", id)
			continue
		}
		names := testName.FindAllString(cell, -1)
		for _, n := range names {
			if !declared[n] {
				t.Errorf("%s names %s, which no _test.go outside bench/ declares", id, n)
			}
		}
		if rest, retired := strings.CutPrefix(cell, "retired"); len(names) == 0 && (!retired || len(strings.Trim(rest, " —-:;,.")) == 0) {
			t.Errorf("%s neither names a test nor reads \"retired\" with what replaced it: %q", id, cell)
		}
	}
}

// TestDocsNameNoDeletedHarness: the experiment harness and its JSON
// records are gone, so no document a reader follows to build, run or
// verify the repository may point at them. The names are assembled so
// this file does not mention them either.
func TestDocsNameNoDeletedHarness(t *testing.T) {
	stale := []string{"cmd/" + "bench" + "gen", "BENCH" + "_PR"}
	for _, path := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stale {
			if strings.Contains(string(src), s) {
				t.Errorf("%s mentions %s", path, s)
			}
		}
	}
}
