package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"webdbsec/internal/core"
	"webdbsec/internal/inference"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/sysr"
)

// streamPipeline builds, from seed alone, a pipeline over a random table
// t (a INT, b TEXT, c INT, d TEXT) whose values tie often and are NULL
// now and then, with a random row policy, random hidden columns, random
// privacy constraints and sometimes an inference rule, and the subject
// those apply to.
func streamPipeline(t *testing.T, seed int64) (*core.SecureWebDB, *policy.Subject) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := core.NewSecureWebDB(core.Config{})
	dba := &policy.Subject{ID: "dba"}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DB().CreateTable(dba, "CREATE TABLE t (a INT, b TEXT, c INT, d TEXT)"))
	for i, n := 0, rng.Intn(80); i < n; i++ {
		row := fmt.Sprintf("(%d, '%c', %d, 'd%d')", rng.Intn(4), 'p'+rng.Intn(3), rng.Intn(50), rng.Intn(5))
		if rng.Intn(10) == 0 {
			row = fmt.Sprintf("(NULL, NULL, %d, NULL)", rng.Intn(50))
		}
		if _, err := w.DB().Exec(dba, "INSERT INTO t VALUES "+row); err != nil {
			t.Fatal(err)
		}
	}
	must(w.DB().Grants().Grant("dba", "s", sysr.Select, "t", false))
	view := policy.SubjectSpec{Roles: []string{"r"}}
	if preds := []string{"", "a >= 1", "b = 'q'", "c < 30 OR a = 0"}; rng.Intn(2) == 0 {
		if p := preds[rng.Intn(len(preds))]; p != "" {
			where := reldb.MustParse("SELECT * FROM t WHERE " + p).(*reldb.SelectStmt).Where
			must(w.DB().AddRowPolicy(&reldb.RowPolicy{Name: "rows", Table: "t", Subject: view, Pred: where}))
		}
	}
	cols := []string{"a", "b", "c", "d"}
	if rng.Intn(2) == 0 {
		must(w.DB().AddColPolicy(&reldb.ColPolicy{Name: "cols", Table: "t", Subject: view, Columns: []string{cols[rng.Intn(4)]}}))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		attrs := []string{cols[rng.Intn(4)]}
		if rng.Intn(2) == 0 {
			attrs = append(attrs, cols[rng.Intn(4)])
		}
		con := &privacy.Constraint{Name: fmt.Sprintf("p%d", i), Attrs: attrs, Class: privacy.Private}
		if rng.Intn(2) == 0 {
			con.Class, con.NeedToKnow = privacy.SemiPrivate, []string{"nk"}
		}
		must(w.Privacy().Add(con))
	}
	if rng.Intn(2) == 0 {
		must(w.Inference().AddRule(&inference.Rule{Name: "h", Body: []string{"a", "b"}, Head: "h"}))
		must(w.Privacy().Add(&privacy.Constraint{Name: "h-c", Attrs: []string{"h", "c"}, Class: privacy.Private}))
	}
	s := &policy.Subject{ID: "s", Roles: []string{"r"}}
	if rng.Intn(2) == 0 {
		s.Roles = append(s.Roles, "nk")
	}
	return w, s
}

// streamStatement draws a SELECT: a row statement with a random select
// list, WHERE, ORDER BY over tying keys and LIMIT (none, 0, k or past the
// table's end), or now and then an aggregate, grouped or not.
func streamStatement(rng *rand.Rand) string {
	where := []string{"", " WHERE a >= 1", " WHERE b = 'p'", " WHERE c < 25 AND a != 2", " WHERE d = 'd1' OR a = 3"}[rng.Intn(5)]
	cols := []string{"a", "b", "c", "d"}
	if rng.Intn(5) == 0 {
		src := fmt.Sprintf("SELECT COUNT(*), MIN(%s), MAX(%s) FROM t%s", cols[rng.Intn(4)], cols[rng.Intn(4)], where)
		if rng.Intn(2) == 0 {
			src += " GROUP BY " + cols[rng.Intn(4)]
		}
		return src
	}
	list := "*"
	if rng.Intn(4) > 0 {
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		list = strings.Join(cols[:1+rng.Intn(4)], ", ")
	}
	src := "SELECT " + list + " FROM t" + where
	dir := func() string { return []string{"", " ASC", " DESC"}[rng.Intn(3)] }
	switch rng.Intn(3) {
	case 1:
		src += " ORDER BY a" + dir()
	case 2:
		src += " ORDER BY b" + dir() + ", d" + dir()
	}
	switch rng.Intn(4) {
	case 1:
		src += " LIMIT 0"
	case 2:
		src += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(6))
	case 3:
		src += " LIMIT 500"
	}
	return src
}

// copiedReply is the composition the repository benchmark's replay runs
// for a /query: SecureDB.Exec's owned rows, FilterResult NULLing them in
// place, core.Query's GROUP BY and inference refusals, and fmtReply. ok
// is false for a refusal.
func copiedReply(w *core.SecureWebDB, s *policy.Subject, sql string) (body string, ok bool) {
	res, err := w.DB().Exec(s, sql)
	if err != nil {
		return "", false
	}
	masked := w.Privacy().FilterResult(s, res)
	if by := reldb.MustParse(sql).(*reldb.SelectStmt).GroupBy; by != "" && slices.Contains(masked, by) {
		return "", false
	}
	var released []string
	for i, attr := range res.Attributes() {
		if attr != "" && !slices.Contains(masked, res.Columns[i]) {
			released = append(released, attr)
		}
	}
	dec := w.Inference().Check(s, released)
	if !dec.Allowed {
		return "", false
	}
	rec := httptest.NewRecorder()
	fmtReply(rec, res, masked, dec.Derived)
	return rec.Body.String(), true
}

// TestStreamedReplyEqualsCopied: a /query answered the streamed way —
// core.Query binding, deciding, and writeReply reading the stored rows
// through the column map — is byte for byte the copied composition, over
// random tables, policies, constraints and statements: hidden and masked
// columns, ORDER BY with ties, LIMIT 0, k and past the end, LIMIT without
// ORDER BY, aggregates with a masked input or GROUP BY column. Two
// pipelines built from one seed take the same statements, so their
// inference histories stay equal.
func TestStreamedReplyEqualsCopied(t *testing.T) {
	answered := 0
	for seed := int64(1); seed <= 60; seed++ {
		streamed, s := streamPipeline(t, seed)
		copied, _ := streamPipeline(t, seed)
		rng := rand.New(rand.NewSource(-seed))
		for q := 0; q < 12; q++ {
			sql := streamStatement(rng)
			want, ok := copiedReply(copied, s, sql)
			out, err := streamed.Query(s, sql)
			if (err == nil) != ok {
				t.Fatalf("seed %d, %q: streamed error %v, copied answered %v", seed, sql, err, ok)
			}
			if err != nil {
				continue
			}
			answered++
			rec := httptest.NewRecorder()
			writeReply(rec, out.Result, out.MaskedColumns, out.Derived)
			if got := rec.Body.String(); got != want {
				t.Fatalf("seed %d, %q: streamed reply\n%s\ncopied reply\n%s", seed, sql, got, want)
			}
		}
	}
	t.Logf("%d of 720 statements answered", answered)
	if answered < 300 {
		t.Errorf("only %d of 720 statements answered; the differential is too thin", answered)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so what a reply
// allocates is the pipeline's and the encoder's alone.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestReplyAllocationsFlatInRows: a wide SELECT through core.Query and
// writeReply makes as many allocations over 5,000 matching rows as over
// 200: the rows go from the table to the pooled reply buffer without a
// per-row copy or a result slice.
func TestReplyAllocationsFlatInRows(t *testing.T) {
	ana := &policy.Subject{ID: "ana", Roles: []string{"analyst"}}
	allocs := func(people int) float64 {
		s, err := newServer(config{people: people})
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		w, rw := s.serving.Load(), &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(20, func() {
			out, err := w.Query(ana, "SELECT * FROM patients")
			if err != nil || len(out.MaskedColumns) != 1 {
				t.Fatalf("out %+v, err %v", out, err)
			}
			writeReply(rw, out.Result, out.MaskedColumns, out.Derived)
		})
	}
	small, large := allocs(200), allocs(5000)
	t.Logf("%v allocations over 200 rows, %v over 5,000", small, large)
	if small != large {
		t.Errorf("SELECT * reply: %v allocations over 5,000 rows, %v over 200; want equal", large, small)
	}
}
