// Package federation implements secure interoperation of autonomous
// databases — §5's "researchers have done some work on the secure
// interoperability of databases. We need to revisit this research and then
// determine what else needs to be done so that the information on the web
// can be managed, integrated and exchanged securely."
//
// Each member source keeps full autonomy: it decides which local tables it
// exports into the federation (possibly under a different virtual name —
// the heterogeneity case), which columns, under which row predicate, and
// at which security level. A federated query fans out to the eligible
// sources, applies each source's export policy INSIDE the source, and
// unions the results with a provenance column, so the federation layer
// never sees rows a source did not explicitly export and a requestor never
// sees sources above its clearance.
//
// Sources are autonomous and may be slow, partitioned, or down. The
// fan-out therefore runs concurrently under the caller's context with an
// optional per-source deadline, and a failing source degrades the query to
// a *partial* result carrying per-source error provenance instead of
// sinking it: availability failures must not become denial of service for
// the healthy members (§5's unreliable-communication-layers concern).
package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"webdbsec/internal/decisioncache"
	"webdbsec/internal/policy"
	"webdbsec/internal/rdf"
	"webdbsec/internal/reldb"
)

// Export declares one table a source contributes to the federation.
type Export struct {
	// Virtual is the federation-wide table name.
	Virtual string
	// Local is the source's own table name (heterogeneous naming).
	Local string
	// Columns are the exported columns in virtual order; they must exist
	// locally. Every source exporting the same Virtual must export the
	// same column list (the federated schema).
	Columns []string
	// Pred optionally restricts the exported rows.
	Pred reldb.Expr
}

// Source is one autonomous member.
type Source struct {
	Name string
	// Level classifies the source; requestors below it cannot reach it.
	Level rdf.Level
	db    *reldb.Database
	// exports: virtual name -> export declaration.
	exports map[string]*Export
	// exec overrides statement execution when non-nil (remote sources,
	// fault injection).
	exec ExecFunc
}

// ExecFunc executes one rewritten SELECT against a source. It must honour
// ctx: a slow source that ignores its deadline is abandoned by the
// fan-out, not waited for.
type ExecFunc func(ctx context.Context, sel *reldb.SelectStmt) (*reldb.Result, error)

// NewSource wraps a member database.
func NewSource(name string, db *reldb.Database, level rdf.Level) *Source {
	return &Source{Name: name, Level: level, db: db, exports: make(map[string]*Export)}
}

// SetExec overrides how the source executes statements — the hook for
// remote members and the fault-injection harness. nil restores the local
// database path. Set before the source serves queries; it is not
// synchronized against in-flight fan-outs.
func (s *Source) SetExec(fn ExecFunc) { s.exec = fn }

// Exec runs one statement through the source's execution path (hook or
// local database), honouring ctx.
func (s *Source) Exec(ctx context.Context, sel *reldb.SelectStmt) (*reldb.Result, error) {
	if s.exec != nil {
		return s.exec(ctx, sel)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.db == nil {
		return nil, fmt.Errorf("federation: source %s has no local database or exec hook", s.Name)
	}
	return s.db.ExecStmt(sel)
}

// ExportTable declares an export. For a source with a pinned local
// database, the local table and every exported column must exist;
// exec-only sources (remote members, replica bindings whose state is
// rebuilt across failovers) cannot be validated up front — a missing
// table there surfaces at execution time through the fan-out's
// degradation path instead.
func (s *Source) ExportTable(e *Export) error {
	if e.Virtual == "" || e.Local == "" {
		return fmt.Errorf("federation: export needs virtual and local names")
	}
	if len(e.Columns) == 0 {
		return fmt.Errorf("federation: export of %s needs an explicit column list", e.Virtual)
	}
	if s.db != nil {
		t, ok := s.db.Table(e.Local)
		if !ok {
			return fmt.Errorf("federation: source %s has no table %s", s.Name, e.Local)
		}
		for _, c := range e.Columns {
			if t.Schema.ColIndex(c) < 0 {
				return fmt.Errorf("federation: source %s table %s has no column %s", s.Name, e.Local, c)
			}
		}
	}
	s.exports[e.Virtual] = e
	return nil
}

// parseCacheCapacity bounds the federated-query parse cache. Federated
// workloads repeat a small set of query shapes across many requestors, so
// a modest bound captures nearly all repeats.
const parseCacheCapacity = 256

// Federation unions exported tables across sources.
type Federation struct {
	mu      sync.RWMutex
	sources []*Source
	timeout time.Duration
	// parsed caches compiled SELECTs by source text. Parsed statements are
	// never mutated by the fan-out (each source gets its own copy), so one
	// compilation serves every repeat of the query.
	parsed *decisioncache.Cache[string, *reldb.SelectStmt]
}

// New returns an empty federation.
func New() *Federation {
	return &Federation{
		parsed: decisioncache.New[string, *reldb.SelectStmt](parseCacheCapacity, decisioncache.HashString),
	}
}

// ParseCacheStats snapshots the federated-query parse-cache counters.
func (f *Federation) ParseCacheStats() decisioncache.Stats { return f.parsed.Stats() }

// SetPerSourceTimeout bounds each source's share of a federated query; a
// source that exceeds it is reported in the result's Failed provenance
// while the others still contribute. Zero (the default) imposes no
// per-source bound beyond the caller's context.
func (f *Federation) SetPerSourceTimeout(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.timeout = d
}

// AddSource registers a member.
func (f *Federation) AddSource(s *Source) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, existing := range f.sources {
		if existing.Name == s.Name {
			return fmt.Errorf("federation: duplicate source %s", s.Name)
		}
	}
	// Schema compatibility: same virtual table ⇒ same column list.
	for v, e := range s.exports {
		for _, other := range f.sources {
			oe, ok := other.exports[v]
			if !ok {
				continue
			}
			if !sameColumns(e.Columns, oe.Columns) {
				return fmt.Errorf("federation: schema mismatch on %s between %s (%v) and %s (%v)",
					v, s.Name, e.Columns, other.Name, oe.Columns)
			}
		}
	}
	f.sources = append(f.sources, s)
	return nil
}

func sameColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// VirtualTables returns the federation's virtual table names, sorted.
func (f *Federation) VirtualTables() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	set := map[string]bool{}
	for _, s := range f.sources {
		for v := range s.exports {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Requestor carries the federated caller's identity and clearance.
type Requestor struct {
	Subject   *policy.Subject
	Clearance rdf.Level
}

// SourceError records one eligible source's failure in a partial result.
type SourceError struct {
	// Source is the failing member's name.
	Source string
	// Err is the cause (deadline, injected fault, local error).
	Err error
	// Timeout flags deadline-style failures for quick triage.
	Timeout bool
}

func (e SourceError) Error() string {
	return fmt.Sprintf("federation: source %s: %v", e.Source, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e SourceError) Unwrap() error { return e.Err }

// Result is a federated query result: the unioned rows plus per-source
// failure provenance. Failed is non-empty when the result is partial.
type Result struct {
	*reldb.Result
	// Failed lists eligible sources that did not contribute, in source
	// name order.
	Failed []SourceError
}

// Partial reports whether any eligible source failed to contribute.
func (r *Result) Partial() bool { return len(r.Failed) > 0 }

// Query runs a federated SELECT over a virtual table: the statement is
// parsed once, then per eligible source rewritten onto the local table
// with the export predicate conjoined, executed concurrently under ctx
// (plus the federation's per-source timeout), projected to the exported
// columns, and unioned with a leading "_source" provenance column. ORDER
// BY/LIMIT apply per source (the union is ordered by source name, then
// source order).
//
// Degradation contract: a failing or slow source is dropped from the
// union and reported in Result.Failed — the query still answers from the
// healthy members, in bounded time. Query returns an error only for
// request-level problems (parse error, unknown virtual table, unexported
// column, aggregate select list) or when EVERY eligible source failed.
func (f *Federation) Query(ctx context.Context, req *Requestor, src string) (*Result, error) {
	sel, err := f.parsed.Do(src, func() (*reldb.SelectStmt, error) {
		st, err := reldb.Parse(src)
		if err != nil {
			return nil, err
		}
		sel, ok := st.(*reldb.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("federation: only SELECT is federated")
		}
		if len(sel.Aggs) > 0 {
			// Each source would fold its own rows and the union would hold
			// one partial aggregate per source: a wrong answer, not a slow one.
			return nil, fmt.Errorf("federation: aggregate SELECT is not federated (a union of per-source aggregates is not the aggregate); select the rows and fold them")
		}
		return sel, nil
	})
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	timeout := f.timeout
	var contributing []*Source
	var export *Export
	for _, s := range f.sources {
		e, ok := s.exports[sel.Table]
		if !ok {
			continue
		}
		export = e
		if req.Clearance < s.Level {
			continue // source above the requestor's clearance
		}
		contributing = append(contributing, s)
	}
	f.mu.RUnlock()
	if export == nil {
		return nil, fmt.Errorf("federation: unknown virtual table %s", sel.Table)
	}
	// Requested columns must be exported (closed: the federation cannot
	// leak a column a source never exported).
	want := sel.Columns
	if want == nil {
		want = export.Columns
	}
	for _, c := range want {
		if !contains(export.Columns, c) {
			return nil, fmt.Errorf("federation: column %s is not exported by %s", c, sel.Table)
		}
	}
	sort.Slice(contributing, func(i, j int) bool { return contributing[i].Name < contributing[j].Name })

	// Concurrent fan-out: one goroutine per eligible source, each bounded
	// by the per-source deadline. A source that ignores its context is
	// abandoned at the deadline (its goroutine finishes into a buffered
	// channel and is collected by the GC), so the query stays bounded even
	// against misbehaving members.
	type outcome struct {
		res *reldb.Result
		err error
	}
	outcomes := make([]outcome, len(contributing))
	var wg sync.WaitGroup
	for i, s := range contributing {
		e := s.exports[sel.Table]
		local := *sel
		local.Table = e.Local
		local.Columns = want
		if e.Pred != nil {
			if local.Where == nil {
				local.Where = e.Pred
			} else {
				local.Where = &reldb.AndExpr{L: local.Where, R: e.Pred}
			}
		}
		wg.Add(1)
		go func(i int, s *Source, local reldb.SelectStmt) {
			defer wg.Done()
			sctx := ctx
			cancel := context.CancelFunc(func() {})
			if timeout > 0 {
				sctx, cancel = context.WithTimeout(ctx, timeout)
			}
			defer cancel()
			done := make(chan outcome, 1)
			go func() {
				res, err := s.Exec(sctx, &local)
				done <- outcome{res, err}
			}()
			select {
			case o := <-done:
				outcomes[i] = o
			case <-sctx.Done():
				outcomes[i] = outcome{nil, sctx.Err()}
			}
		}(i, s, local)
	}
	wg.Wait()

	out := &Result{Result: &reldb.Result{Columns: append([]string{"_source"}, want...)}}
	for i, s := range contributing {
		o := outcomes[i]
		if o.err != nil {
			out.Failed = append(out.Failed, SourceError{
				Source:  s.Name,
				Err:     o.err,
				Timeout: isDeadline(o.err),
			})
			continue
		}
		for _, r := range o.res.Rows {
			row := make(reldb.Row, 0, len(r)+1)
			row = append(row, reldb.Str(s.Name))
			row = append(row, r...)
			out.Rows = append(out.Rows, row)
		}
	}
	out.Affected = len(out.Rows)
	if len(contributing) > 0 && len(out.Failed) == len(contributing) {
		return nil, fmt.Errorf("federation: all %d eligible source(s) failed, first: %w",
			len(contributing), out.Failed[0])
	}
	return out, nil
}

// isDeadline reports whether err stems from a spent context deadline or
// cancellation.
func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
