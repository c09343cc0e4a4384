// Command securedb runs the secure web database (internal/core) as an HTTP
// service: the full §3 pipeline — System R grants, row/column policies,
// privacy constraints, inference control and audit — in front of the
// relational substrate, with a demo medical schema.
//
// Endpoints:
//
//	POST /query    form fields: subject, roles (comma-separated), sql: a
//	               SELECT, aggregate or not, through the whole pipeline
//	POST /agg      the same handler as /query, under its old name
//	POST /exec     same fields; INSERT/UPDATE/DELETE; leader only
//	POST /token    subject, roles: mint an auth token (X-Auth-Token)
//	GET  /explain  sql: the access plan (unauthenticated)
//	GET  /audit    the audit trail (unauthenticated)
//
// The statement, not the route, decides what runs: a write sent to /query,
// or a SELECT sent to /exec, is refused (403) and audited, touching no table.
//
// Example:
//
//	curl -d "subject=ana&roles=analyst&sql=SELECT age, zip FROM patients" \
//	     http://localhost:8081/query
//
// With -nodeid, -replica and -peers the node joins a WAL-shipped replication
// group and serves the same endpoints (plus /cluster) through the same code
// (server.go): failover is automatic — when the leader dies, the survivors
// elect by an explicit quorum vote and the winner promotes its replica in
// place.
package main

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/core"
	"webdbsec/internal/credential"
	"webdbsec/internal/inference"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/replication"
	"webdbsec/internal/synth"
	"webdbsec/internal/sysr"
	"webdbsec/internal/wal"
)

// flags is the parsed command line.
type flags struct {
	addr        string
	people      int
	debug       bool
	dataDir     string
	walSync     string
	ckptEvery   time.Duration
	nodeID      string
	replicaAddr string
	peersSpec   string
	// clusterSecret derives every node's signing key; leaking it leaks the
	// whole cluster's identities.
	//
	// seclint:secret
	clusterSecret string
	tokenTTL      time.Duration
}

// clustered reports whether any cluster flag was given.
func (f *flags) clustered() bool {
	return f.nodeID != "" || f.replicaAddr != "" || f.peersSpec != ""
}

// validate refuses flag combinations the node cannot honour, instead of
// silently ignoring them, and returns the parsed -walsync policy.
func (f *flags) validate() (wal.SyncPolicy, error) {
	policy, err := wal.ParseSyncPolicy(f.walSync)
	if err != nil || !f.clustered() {
		return policy, err
	}
	if f.nodeID == "" || f.replicaAddr == "" || f.peersSpec == "" {
		return policy, fmt.Errorf("cluster mode needs all of -nodeid, -replica and -peers")
	}
	if f.dataDir == "" {
		return policy, fmt.Errorf("cluster mode needs -data (the WAL is what gets replicated)")
	}
	// The replicated log must be SyncAlways: an Append return doubles as
	// the durability half of the commit verdict the ack protocol ships.
	if policy != wal.SyncAlways {
		return policy, fmt.Errorf("cluster mode needs -walsync always, not %s: a replicated commit is acknowledged on its fsync", policy)
	}
	// A group member's log is the history its peers catch up from; nothing
	// schedules its truncation yet.
	if f.ckptEvery != 0 {
		return policy, fmt.Errorf("cluster mode takes no periodic checkpoints; drop -checkpoint %s", f.ckptEvery)
	}
	return policy, nil
}

func main() {
	var f flags
	flag.StringVar(&f.addr, "addr", ":8081", "listen address")
	flag.IntVar(&f.people, "people", 200, "synthetic patients to load")
	flag.BoolVar(&f.debug, "debug", false, "expose /debug/pprof and /debug/vars (off by default)")
	flag.StringVar(&f.dataDir, "data", "", "durable data directory (empty = in-memory only)")
	flag.StringVar(&f.walSync, "walsync", "always", "WAL fsync policy with -data: always, interval or never")
	flag.DurationVar(&f.ckptEvery, "checkpoint", 0, "with -data, take a fuzzy checkpoint this often while serving (0 = only at shutdown)")
	flag.StringVar(&f.nodeID, "nodeid", "", "cluster node ID; enables cluster mode with -replica and -peers")
	flag.StringVar(&f.replicaAddr, "replica", "", "replication listen address (host:port) for cluster mode")
	flag.StringVar(&f.peersSpec, "peers", "", "comma-separated id=host:port list of every OTHER cluster member")
	flag.StringVar(&f.clusterSecret, "clustersecret", "securedb-demo", "shared secret deriving the demo cluster node identities")
	flag.DurationVar(&f.tokenTTL, "tokenttl", 2*time.Minute, "auth-token lifetime for the POST /token fast path (0 disables token auth)")
	flag.Parse()
	policy, err := f.validate()
	if err != nil {
		log.Fatalf("securedb: %v", err)
	}

	// How the node is built is all that depends on the flags: durable logs
	// under -data (the relational substrate and the audit chain survive
	// restarts; the demo schema is loaded only on first start), and a
	// replication identity with the cluster flags. Serving is one path.
	cfg := config{people: f.people, tokenTTL: f.tokenTTL}
	if f.dataDir != "" {
		open := func(name string) *wal.WAL {
			w, err := wal.Open(wal.Options{FS: wal.DirFS(filepath.Join(f.dataDir, name)), Policy: policy})
			if err != nil {
				log.Fatalf("securedb: open %s wal: %v", name, err)
			}
			return w
		}
		cfg.dbWAL, cfg.auditWAL = open("db"), open("audit")
		log.Printf("securedb: durable mode: data=%s sync=%s", f.dataDir, policy)
	}
	if f.clustered() {
		rc, err := f.replicationConfig()
		if err != nil {
			log.Fatalf("securedb: %v", err)
		}
		cfg.cluster = rc
		log.Printf("securedb: cluster node %s replicating on %s, peers %v", rc.NodeID, rc.Addr, rc.Peers)
	}
	s, err := newServer(cfg)
	if err != nil {
		log.Fatalf("securedb: %v", err)
	}

	// Serve with timeouts — a slow-loris client or wedged handler must
	// not accumulate goroutines forever — and drain gracefully on
	// SIGINT/SIGTERM so in-flight queries finish.
	srv := &http.Server{
		Addr:              f.addr,
		Handler:           s.mux(f.debug),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if f.ckptEvery > 0 && cfg.dbWAL != nil {
		go func() {
			tick := time.NewTicker(f.ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := s.checkpoint(); err != nil {
						log.Printf("securedb: periodic checkpoint: %v", err)
					}
				}
			}
		}()
		log.Printf("securedb: fuzzy checkpoint every %s", f.ckptEvery)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("securedb listening on %s (demo schema: patients(name, zip, age, disease))", f.addr)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("securedb: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("securedb: shutdown: %v", err)
	}
	s.close()
}

// replicationConfig decodes the cluster flags into this node's replication
// identity.
func (f *flags) replicationConfig() (*replication.Config, error) {
	peers, err := parsePeers(f.peersSpec)
	if err != nil {
		return nil, err
	}
	if _, self := peers[f.nodeID]; self {
		return nil, fmt.Errorf("-peers must list every OTHER node, not %s itself", f.nodeID)
	}
	keys := make(map[string]ed25519.PublicKey, len(peers))
	for id := range peers {
		keys[id] = demoNodeKey(f.clusterSecret, id).Public().(ed25519.PublicKey)
	}
	return &replication.Config{
		NodeID:    f.nodeID,
		Addr:      f.replicaAddr,
		Peers:     peers,
		Identity:  demoNodeKey(f.clusterSecret, f.nodeID),
		PeerKeys:  keys,
		MetaStore: wal.DirFS(filepath.Join(f.dataDir, "cluster")),
		Logf:      log.Printf,
	}, nil
}

// parsePeers decodes "id=host:port,id=host:port" into the peer map.
func parsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("peer %q: want id=host:port", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("peer %q listed twice", id)
		}
		peers[id] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers %q names no peers", spec)
	}
	return peers, nil
}

// demoNodeKey derives a node's ed25519 identity from the shared cluster
// secret, so every member can compute every peer's public key without a
// key-distribution step. Demo-grade: a production deployment provisions
// per-node keys and a credential.Verifier-backed join policy instead.
func demoNodeKey(secret, id string) ed25519.PrivateKey {
	seed := sha256.Sum256([]byte(secret + "|" + id))
	return ed25519.NewKeyFromSeed(seed[:])
}

// grantMintGate is the MintGate behind every securedb mint: the System R
// grant catalog of the currently-serving pipeline. A subject may hold a
// token only if it owns the demo table or holds a live Select grant on it
// — the same catalog every query consults, so the token attests a real
// policy decision, not a side channel around one. current is indirect so
// the cluster's gate follows promotions and demotions.
type grantMintGate struct {
	current func() *core.SecureWebDB
}

func (g grantMintGate) AllowMint(s *policy.Subject) bool {
	w := g.current()
	if w == nil {
		return false
	}
	return w.DB().Grants().HasPrivilege(s.ID, sysr.Select, "patients")
}

// newAuthService builds the mint-capable token service a leading node
// runs: verifier and minter over ring, wallets checked by creds, gated on
// the live grant catalog.
func newAuthService(ring *keymgmt.MintKeyring, creds *credential.Verifier, ttl time.Duration, current func() *core.SecureWebDB) (*authtoken.Service, error) {
	minter, err := authtoken.NewMinter(ring, creds, grantMintGate{current: current}, ttl)
	if err != nil {
		return nil, err
	}
	return &authtoken.Service{Gate: &authtoken.Gate{
		Verifier: authtoken.NewVerifier(ring, ttl, 0, 0),
		Minter:   minter,
	}}, nil
}

// pipelineHandler serves one request against one pipeline and its gate.
type pipelineHandler func(rw http.ResponseWriter, r *http.Request, w *core.SecureWebDB, auth *authtoken.Service)

// statement authenticates a POSTed (subject, sql) pair; on !ok the refusal
// is already written. The serving subject comes through the token gate when
// the surface has one (fast path, wallet fallback, or legacy passthrough),
// straight from the form fields when token auth is off.
func statement(rw http.ResponseWriter, r *http.Request, auth *authtoken.Service) (subject *policy.Subject, sql string, ok bool) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return nil, "", false
	}
	if auth != nil {
		if subject, ok = auth.Authorize(rw, r); !ok {
			return nil, "", false
		}
	} else {
		subject = &policy.Subject{ID: r.FormValue("subject")}
		if roles := r.FormValue("roles"); roles != "" {
			subject.Roles = strings.Split(roles, ",")
		}
	}
	sql = r.FormValue("sql")
	if subject.ID == "" || sql == "" {
		http.Error(rw, "need subject and sql", http.StatusBadRequest)
		return nil, "", false
	}
	return subject, sql, true
}

// appendReply renders a result as tab-separated lines under a header
// line, then the privacy and inference note lines the reply carries when
// there is something to note.
func appendReply(b []byte, res *reldb.Result, masked, derived []string) []byte {
	b = append(appendJoined(b, res.Columns, "\t"), '\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b = append(b, '\t')
			}
			switch v.Kind {
			case reldb.KindInt:
				b = strconv.AppendInt(b, v.I, 10)
			case reldb.KindString:
				b = append(b, v.S...)
			default:
				b = append(b, v.String()...)
			}
		}
		b = append(b, '\n')
	}
	if len(masked) > 0 {
		b = append(appendJoined(append(b, "# masked by privacy constraints: "...), masked, ", "), '\n')
	}
	if len(derived) > 0 {
		b = append(appendJoined(append(b, "# inference controller notes you can now derive: "...), derived, ", "), '\n')
	}
	return b
}

// appendJoined is append(b, strings.Join(parts, sep)...) without the
// joined string.
func appendJoined(b []byte, parts []string, sep string) []byte {
	for i, p := range parts {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(b, p...)
	}
	return b
}

// writeReply sends appendReply's rendering in one Write. The content type
// is what net/http sniffed from the header line when that line was a Write
// of its own.
func writeReply(rw http.ResponseWriter, res *reldb.Result, masked, derived []string) {
	b := make([]byte, 0, 128+8*(len(res.Rows)+1)*len(res.Columns))
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rw.Write(appendReply(b, res, masked, derived)) // a failed Write is the client gone; there is no one to tell
}

// serveQuery runs a SELECT, aggregate or not, through the whole pipeline;
// it is /query and /agg.
func serveQuery(rw http.ResponseWriter, r *http.Request, w *core.SecureWebDB, auth *authtoken.Service) {
	subject, sql, ok := statement(rw, r, auth)
	if !ok {
		return
	}
	out, err := w.Query(subject, sql)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusForbidden)
		return
	}
	writeReply(rw, out.Result, out.MaskedColumns, out.Derived)
}

// serveExec runs INSERT/UPDATE/DELETE. committed, when set, holds the
// success ack until the statement's commit record (res.LSN — this
// statement's own, not whatever the log tail is by then) is durable
// cluster-wide; nothing is written before its verdict, so a refused ack
// carries no partial success body.
func serveExec(rw http.ResponseWriter, r *http.Request, w *core.SecureWebDB, auth *authtoken.Service, committed func(ctx context.Context, lsn int64) error) {
	subject, sql, ok := statement(rw, r, auth)
	if !ok {
		return
	}
	res, err := w.Execute(subject, sql)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusForbidden)
		return
	}
	if committed != nil {
		if err := committed(r.Context(), res.LSN); err != nil {
			http.Error(rw, fmt.Sprintf("commit not acknowledged by quorum: %v", err), http.StatusServiceUnavailable)
			return
		}
	}
	fmt.Fprintf(rw, "ok, %d row(s) affected\n", res.Affected)
}

// serveExplain prints the access plan the engine would choose.
func serveExplain(rw http.ResponseWriter, r *http.Request, w *core.SecureWebDB, _ *authtoken.Service) {
	plan, err := w.DB().DB().Explain(r.FormValue("sql"))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintln(rw, plan)
}

// setupDemo loads the demo schema: a patients table, analyst grants, a
// row policy, privacy constraints ({name, disease} private; {zip, disease}
// semi-private for researchers) and the re-identification inference rule.
// When fresh is false (durable restart) the table and rows already exist
// and only the in-memory layers — grants, policies, constraints, rules —
// are reinstalled.
func setupDemo(w *core.SecureWebDB, people int, fresh bool) error {
	dba := &policy.Subject{ID: "dba"}
	if fresh {
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
	} else {
		// The table and rows were recovered from the WAL, but the grant
		// catalog is in-memory demo configuration: re-register ownership so
		// the grants below have an object to attach to.
		if err := w.DB().Grants().CreateObject("patients", dba.ID); err != nil {
			return err
		}
	}
	for _, grantee := range []string{"ana", "res"} {
		for _, priv := range []sysr.Privilege{sysr.Select} {
			if err := w.DB().Grants().Grant("dba", grantee, priv, "patients", false); err != nil {
				return err
			}
		}
	}
	pred := reldb.MustParse("SELECT * FROM patients WHERE age >= 0").(*reldb.SelectStmt).Where
	if err := w.DB().AddRowPolicy(&reldb.RowPolicy{
		Name: "analysts-see-all", Table: "patients",
		Subject: policy.SubjectSpec{Roles: []string{"analyst", "researcher"}}, Pred: pred,
	}); err != nil {
		return err
	}
	if err := w.Privacy().Add(&privacy.Constraint{
		Name: "name-disease-private", Attrs: []string{"name", "disease"}, Class: privacy.Private,
	}); err != nil {
		return err
	}
	if err := w.Privacy().Add(&privacy.Constraint{
		Name: "zip-disease-research", Attrs: []string{"zip", "disease"},
		Class: privacy.SemiPrivate, NeedToKnow: []string{"researcher"},
	}); err != nil {
		return err
	}
	if err := w.Privacy().Add(&privacy.Constraint{
		Name: "identity-disease-private", Attrs: []string{"identity", "disease"}, Class: privacy.Private,
	}); err != nil {
		return err
	}
	return w.Inference().AddRule(&inference.Rule{
		Name: "reidentification", Body: []string{"name", "zip"}, Head: "identity",
	})
}
