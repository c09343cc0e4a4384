package main

import (
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"webdbsec/internal/audit"
	"webdbsec/internal/authtoken"
	"webdbsec/internal/core"
	"webdbsec/internal/credential"
	"webdbsec/internal/inference"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/synth"
	"webdbsec/internal/sysr"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wal"
	"webdbsec/internal/wsa"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// The in-process stage replay. The servers have no spans of their own yet,
// so the benchmark builds the same stack through the packages' public
// constructors, makes the calls the HTTP handler makes, in its order, and
// times each from outside. It is a re-composition of cmd/securedb and
// internal/wsa's handler, so it can drift from them; what keeps it honest is
// that every reply it produces must equal the outcome the real binary gave
// over HTTP (trace.mismatch = 0). The replay runs on one goroutine: it
// measures the time a stage is busy, not the time a request waits for a lock
// or for another request's fsync. That wait is part of http.residual_us.

// replayCounts are the counts taken where the work happens.
type replayCounts struct {
	ops                          int
	mismatch                     int
	scanned, returned            int // candidate rows examined / rows the engine returned
	permitted, masked, inferDeny int
	proofBytes, inquiries        int
}

// stack is one in-process server: serve answers a request as the handler
// would; close releases its logs.
type stack interface {
	serve(r *request, n *replayCounts) (int, []byte)
	close()
}

// dbStack is securedb without HTTP.
type dbStack struct {
	w     *core.SecureWebDB
	gate  *authtoken.Gate // nil when token auth is off
	token []byte          // ana's rolling token
	tr    *tracer
	wals  []*wal.WAL
	plans map[string]int // candidate rows per SELECT text, from Explain
}

// mintGate is cmd/securedb's mint policy: a token only for a subject the
// grant catalog lets read the demo table.
type mintGate struct{ grants *sysr.Catalog }

func (g mintGate) AllowMint(s *policy.Subject) bool {
	return g.grants.HasPrivilege(s.ID, sysr.Select, "patients")
}

// newDBStack assembles what cmd/securedb's main assembles for w's flags,
// with both logs over the timing file system when the workload is durable.
func newDBStack(w *workload, dir string, tr *tracer) (*dbStack, error) {
	st := &dbStack{tr: tr, plans: map[string]int{}}
	cfg := core.Config{}
	if w.durable {
		open := func(name string) (*wal.WAL, error) {
			l, err := wal.Open(wal.Options{
				FS:     timingFS{FS: wal.DirFS(filepath.Join(dir, name)), tr: tr},
				Policy: wal.SyncAlways, MaxBatchBytes: 1 << 20,
			})
			if err == nil {
				st.wals = append(st.wals, l)
			}
			return l, err
		}
		dbWAL, err := open("db")
		if err != nil {
			return nil, err
		}
		auditWAL, err := open("audit")
		if err != nil {
			return nil, err
		}
		database, err := reldb.OpenDatabase(dbWAL)
		if err != nil {
			return nil, err
		}
		if cfg.Audit, err = audit.OpenLog(auditWAL); err != nil {
			return nil, err
		}
		cfg.DB = reldb.NewSecureDB(database, nil)
	}
	st.w = core.NewSecureWebDB(cfg)
	if err := loadDemo(st.w, w.people); err != nil {
		return nil, err
	}
	if w.tokens {
		ring, err := keymgmt.NewMintKeyring(2)
		if err != nil {
			return nil, err
		}
		const ttl = 2 * time.Minute // securedb's -tokenttl default
		minter, err := authtoken.NewMinter(ring, credential.NewVerifier(), mintGate{st.w.DB().Grants()}, ttl)
		if err != nil {
			return nil, err
		}
		st.gate = &authtoken.Gate{Verifier: authtoken.NewVerifier(ring, ttl, 0, 0), Minter: minter}
		t, err := minter.Mint(&policy.Subject{ID: "ana", Roles: []string{"analyst"}}, time.Now())
		if err != nil {
			return nil, err
		}
		st.token = t.Encode()
	}
	return st, nil
}

// loadDemo is cmd/securedb's setupDemo for a fresh database.
func loadDemo(w *core.SecureWebDB, people int) error {
	dba := &policy.Subject{ID: "dba"}
	if err := w.DB().CreateTable(dba, "CREATE TABLE patients (name TEXT, zip TEXT, age INT, disease TEXT)"); err != nil {
		return err
	}
	for _, p := range synth.People(1, people) {
		stmt := fmt.Sprintf("INSERT INTO patients VALUES (%s, %s, %d, %s)",
			reldb.QuoteString(p.Name), reldb.QuoteString(p.Zip), p.Age, reldb.QuoteString(p.Disease))
		if _, err := w.DB().Exec(dba, stmt); err != nil {
			return err
		}
	}
	for _, grantee := range []string{"ana", "res"} {
		if err := w.DB().Grants().Grant("dba", grantee, sysr.Select, "patients", false); err != nil {
			return err
		}
	}
	pred := reldb.MustParse("SELECT * FROM patients WHERE age >= 0").(*reldb.SelectStmt).Where
	if err := w.DB().AddRowPolicy(&reldb.RowPolicy{
		Name: "analysts-see-all", Table: "patients",
		Subject: policy.SubjectSpec{Roles: []string{"analyst", "researcher"}}, Pred: pred,
	}); err != nil {
		return err
	}
	for _, c := range []*privacy.Constraint{
		{Name: "name-disease-private", Attrs: []string{"name", "disease"}, Class: privacy.Private},
		{Name: "zip-disease-research", Attrs: []string{"zip", "disease"}, Class: privacy.SemiPrivate, NeedToKnow: []string{"researcher"}},
		{Name: "identity-disease-private", Attrs: []string{"identity", "disease"}, Class: privacy.Private},
	} {
		if err := w.Privacy().Add(c); err != nil {
			return err
		}
	}
	return w.Inference().AddRule(&inference.Rule{Name: "reidentification", Body: []string{"name", "zip"}, Head: "identity"})
}

func (st *dbStack) close() {
	for _, l := range st.wals {
		l.Close() // the directory is removed next; nothing to keep
	}
}

// appendAudit is the audit stage; File.Write and File.Sync of the audit log
// nest under it.
func (st *dbStack) appendAudit(actor, action, object, outcome string) {
	id := st.tr.begin("audit.append")
	st.w.Audit().Append(actor, action, object, outcome) // as core does; a failed log sticks in Err, which replay checks
	st.tr.end(id)
}

func refused(err error) (int, []byte) { return 403, []byte(err.Error() + "\n") }

// serve makes cmd/securedb's handler calls for /query and /exec:
// Gate.Authenticate, SecureDB.Exec, Controller.FilterResult,
// Controller.Check, Log.Append, then the reply's text.
func (st *dbStack) serve(r *request, n *replayCounts) (int, []byte) {
	subject := &policy.Subject{ID: r.subject, Roles: r.roles}
	if st.gate != nil {
		var raw []byte
		if r.token {
			raw = st.token
		}
		id := st.tr.begin("authtoken.authenticate")
		res, err := st.gate.Authenticate(subject, raw, time.Now())
		st.tr.end(id)
		if err != nil {
			return 401, []byte(err.Error() + "\n")
		}
		if res.Token != nil {
			st.token = res.Token.Encode()
		}
	}
	if r.class == "update" {
		id := st.tr.begin("reldb.update")
		res, err := st.w.DB().Exec(subject, r.sql)
		st.tr.end(id)
		if err != nil {
			st.appendAudit(subject.ID, "execute", r.sql, "deny")
			return refused(err)
		}
		st.appendAudit(subject.ID, "execute", r.sql, "permit")
		id = st.tr.begin("http.encode")
		body := fmt.Appendf(nil, "ok, %d row(s) affected\n", res.Affected)
		st.tr.end(id)
		return 200, body
	}

	id := st.tr.begin("reldb.exec")
	res, err := st.w.DB().Exec(subject, r.sql)
	st.tr.end(id)
	if err != nil {
		st.appendAudit(subject.ID, "query", r.sql, "deny:access")
		return refused(err)
	}
	n.scanned += st.candidateRows(r.sql)
	n.returned += len(res.Rows)

	id = st.tr.begin("privacy.filter")
	masked := st.w.Privacy().FilterResult(subject, res)
	st.tr.end(id)
	isMasked := map[string]bool{}
	for _, m := range masked {
		isMasked[m] = true
	}
	var released []string
	for _, c := range res.Columns {
		if !isMasked[c] {
			released = append(released, c)
		}
	}

	id = st.tr.begin("inference.check")
	dec := st.w.Inference().Check(subject, released)
	st.tr.end(id)
	if !dec.Allowed {
		n.inferDeny++
		st.appendAudit(subject.ID, "query", r.sql, "deny:inference:"+dec.Violation)
		return refused(fmt.Errorf("core: query refused: releasing %v would let %s infer protected information (constraint %s)",
			released, subject.ID, dec.Violation))
	}
	st.appendAudit(subject.ID, "query", r.sql, "permit")
	n.permitted++
	if len(masked) > 0 {
		n.masked++
	}

	id = st.tr.begin("http.encode")
	var b strings.Builder
	fmt.Fprintln(&b, strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Fprintln(&b, strings.Join(cells, "\t"))
	}
	if len(masked) > 0 {
		fmt.Fprintf(&b, "# masked by privacy constraints: %s\n", strings.Join(masked, ", "))
	}
	if len(dec.Derived) > 0 {
		fmt.Fprintf(&b, "# inference controller notes you can now derive: %s\n", strings.Join(dec.Derived, ", "))
	}
	st.tr.end(id)
	return 200, []byte(b.String())
}

// candidateRows is how many rows the planner's access path examines for a
// SELECT text: the table for a full scan, the index range otherwise.
func (st *dbStack) candidateRows(sql string) int {
	if rows, ok := st.plans[sql]; ok {
		return rows
	}
	rows := 0
	if plan, err := st.w.DB().DB().Explain(sql); err == nil {
		rows = plan.EstRows
	}
	st.plans[sql] = rows
	return rows
}

// probe times two calls the handler does not make on their own: the grant
// lookup inside SecureDB.Exec and a cold parse of the statement (the server
// parses through its cache). They are recorded as top-level spans named
// probe.* and are not stages of the request.
func (st *dbStack) probe(r *request) {
	id := st.tr.begin("probe.sysr.check")
	st.w.DB().Grants().HasPrivilege(r.subject, sysr.Select, "patients")
	st.tr.end(id)
	id = st.tr.begin("probe.reldb.parse")
	reldb.Parse(r.sql) // timed, not used: every text parsed when the table was built
	st.tr.end(id)
}

// uddiStack is uddiserver -mode untrusted without HTTP.
type uddiStack struct {
	agency *uddi.UntrustedAgency
	dir    *wsig.KeyDirectory
	tr     *tracer
}

// newUDDIStack publishes the demo entries, signed by a fresh provider, to an
// untrusted agency enforcing cmd/uddiserver's two demo policies.
func newUDDIStack(tr *tracer) (*uddiStack, error) {
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name:    "entries-public",
		Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object:  policy.ObjectSpec{Doc: "*"},
		Priv:    policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name:    "bindings-partner-only",
		Subject: policy.SubjectSpec{NotRoles: []string{"partner"}},
		Object:  policy.ObjectSpec{Doc: "*", Path: "//bindingTemplate"},
		Priv:    policy.Read, Sign: policy.Deny, Prop: policy.Cascade,
	})
	st := &uddiStack{agency: uddi.NewUntrustedAgency(base), dir: wsig.NewKeyDirectory(), tr: tr}
	prov, err := uddi.NewProvider("demo-provider")
	if err != nil {
		return nil, err
	}
	st.dir.RegisterSigner(prov.Signer())
	for i := 0; i < entries; i++ {
		entry, err := prov.Sign(synth.Entity(entryKey(i), "logistics", 2))
		if err != nil {
			return nil, err
		}
		if err := st.agency.Publish(entry); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *uddiStack) close() {}

// serve makes the envelope handler's calls for query_authenticated:
// DecodeEnvelope, UntrustedAgency.Query, then the result's wire form and
// Envelope.Encode.
func (st *uddiStack) serve(r *request, n *replayCounts) (int, []byte) {
	fault := func(err error) (int, []byte) {
		return 400, []byte((&wsa.Envelope{Fault: err.Error()}).Encode())
	}
	id := st.tr.begin("wsa.decode")
	env, err := wsa.DecodeEnvelope(strings.NewReader(r.body))
	st.tr.end(id)
	if err != nil {
		return fault(err)
	}
	key, _ := env.Body.Root.Attr("businessKey")
	id = st.tr.begin("uddi.query")
	res, err := st.agency.Query(&policy.Subject{ID: env.Sender, Roles: env.Roles}, key)
	st.tr.end(id)
	if err != nil {
		return fault(err)
	}
	id = st.tr.begin("wsa.encode")
	doc := encodeAuthenticated(res)
	body := (&wsa.Envelope{Operation: env.Operation, Body: doc}).Encode()
	st.tr.end(id)
	n.inquiries++
	for _, part := range []string{"summary", "proof"} {
		if el := doc.Root.Child(part); el != nil {
			n.proofBytes += len(xmldoc.CanonicalSubtree(el))
		}
	}
	return 200, []byte(body)
}

// encodeAuthenticated is internal/wsa's wire form of an authenticated
// result: summary signature, proof positions and hashes, then the view.
func encodeAuthenticated(res *uddi.AuthenticatedResult) *xmldoc.Document {
	b := xmldoc.NewBuilder("resp", "authenticatedResult")
	b.Begin("summary").
		Attrib("signer", res.Summary.Sig.Signer).
		Attrib("value", hex.EncodeToString(res.Summary.Sig.Value)).
		End()
	b.Begin("proof")
	for _, ep := range res.Proof.Elems {
		b.Begin("element")
		for _, m := range ep.Missing {
			b.Begin("missing").
				Attrib("pos", strconv.Itoa(m.Pos)).
				Attrib("hash", hex.EncodeToString(m.Hash)).
				End()
		}
		b.End()
	}
	b.End()
	d := b.Freeze()
	full := d.Canonical()
	full = full[:len(full)-len("</authenticatedResult>")] + "<view>" + res.View.Canonical() + "</view></authenticatedResult>"
	out, err := xmldoc.ParseString("resp", full)
	if err != nil {
		return d
	}
	return out
}

// replay warms the stack up exactly as the HTTP run warmed the server, then
// answers ops one at a time with tracing on, until limit ops or budget time
// are used up. Every outcome must equal the HTTP oracle's.
func replay(st stack, check checker, reps, ops []*request, oracle []string, tr *tracer, limit int, budget time.Duration) (replayCounts, error) {
	var n replayCounts
	var scratch replayCounts
	own, _, err := buildOracle(reps, 1, func(_ int, r *request) (string, error) {
		status, body := st.serve(r, &scratch)
		return check(r, status, body), nil
	})
	if err != nil {
		return n, fmt.Errorf("replay: %w", err)
	}
	for i := range own {
		if own[i] != oracle[i] {
			n.mismatch++
		}
	}
	db, _ := st.(*dbStack)
	tr.setOn(true)
	defer tr.setOn(false)
	start := time.Now()
	for i, r := range ops {
		if i >= limit || time.Since(start) > budget {
			break
		}
		tr.nextRequest(i)
		status, body := st.serve(r, &n)
		if check(r, status, body) != expected(r, oracle) {
			n.mismatch++
		}
		if db != nil {
			db.probe(r)
		}
		n.ops++
	}
	if db != nil {
		if err := db.w.Audit().Err(); err != nil {
			return n, fmt.Errorf("replay: audit log: %w", err)
		}
	}
	return n, nil
}
