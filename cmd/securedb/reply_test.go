package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webdbsec/internal/reldb"
)

// fmtReply is the rendering /query replies had when every line
// was its own fmt call on the ResponseWriter, kept verbatim as the
// reference writeReply is held to.
func fmtReply(rw http.ResponseWriter, res *reldb.Result, masked, derived []string) {
	fmt.Fprintln(rw, strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Fprintln(rw, strings.Join(cells, "\t"))
	}
	if len(masked) > 0 {
		fmt.Fprintf(rw, "# masked by privacy constraints: %s\n", strings.Join(masked, ", "))
	}
	if len(derived) > 0 {
		fmt.Fprintf(rw, "# inference controller notes you can now derive: %s\n", strings.Join(derived, ", "))
	}
}

// replyValues covers every Kind and the spellings that could diverge
// between Value.String and an append-style encoder.
var replyValues = []reldb.Value{
	reldb.Null(),
	reldb.Int(0), reldb.Int(-1), reldb.Int(42), reldb.Int(1<<53 + 1), reldb.Int(math.MinInt64), reldb.Int(math.MaxInt64),
	reldb.Float(0), reldb.Float(3), reldb.Float(-2.5), reldb.Float(1e21), reldb.Float(1e-7), reldb.Float(math.Inf(1)), reldb.Float(math.NaN()),
	reldb.Str(""), reldb.Str("ana"), reldb.Str("tab\there"), reldb.Str("line\nbreak"), reldb.Str("# not a note"), reldb.Str("é\x00\x01"),
	reldb.Bool(true), reldb.Bool(false),
	{Kind: reldb.Kind(99)},
}

func TestReplyEncoderMatchesFmtRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := []string{"name", "zip", "age", "disease", "COUNT(*)", ""}
	pick := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = names[rng.Intn(len(names))]
		}
		return out
	}
	results := []*reldb.Result{
		{},                                 // zero columns, zero rows
		{Columns: []string{"name", "zip"}}, // zero rows
		{Rows: []reldb.Row{{}, {}}},        // zero columns, rows all the same
		{Columns: []string{"v"}, Rows: func() (rows []reldb.Row) {
			for _, v := range replyValues {
				rows = append(rows, reldb.Row{v})
			}
			return rows
		}()},
	}
	for n := 0; n < 200; n++ {
		cols := rng.Intn(6)
		res := &reldb.Result{Columns: pick(cols)}
		for r := rng.Intn(40); r > 0; r-- {
			row := make(reldb.Row, cols)
			for i := range row {
				row[i] = replyValues[rng.Intn(len(replyValues))]
			}
			res.Rows = append(res.Rows, row)
		}
		results = append(results, res)
	}
	for i, res := range results {
		for _, notes := range [][2][]string{
			{nil, nil}, {pick(1), nil}, {nil, pick(2)}, {pick(3), pick(1)}, {{}, {}},
		} {
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			fmtReply(want, res, notes[0], notes[1])
			writeReply(got, res, notes[0], notes[1])
			if got.Body.String() != want.Body.String() {
				t.Fatalf("result %d, notes %q: body\n%q\nwant\n%q", i, notes, got.Body.String(), want.Body.String())
			}
			if g, w := got.Result().Header.Get("Content-Type"), want.Result().Header.Get("Content-Type"); g != w || got.Code != want.Code {
				t.Fatalf("result %d: status %d, Content-Type %q; want %d, %q", i, got.Code, g, want.Code, w)
			}
		}
	}
}
