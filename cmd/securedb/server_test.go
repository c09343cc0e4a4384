package main

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/policy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/replication"
	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

// The serving path is one: these tests build it as a single node and as a
// 3-node replication group over MemFS, in process, and hold the two to the
// same behaviour.

func memWAL(t *testing.T) *wal.WAL {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: faultinject.NewMemFS(), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return w
}

func testConfig(t *testing.T) config {
	return config{people: 25, tokenTTL: time.Minute, dbWAL: memWAL(t), auditWAL: memWAL(t)}
}

func startSingle(t *testing.T) *server {
	t.Helper()
	s, err := newServer(testConfig(t))
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(s.close)
	return s
}

// startGroup starts one server per id as a replication group over loopback
// listeners and returns them with the elected leader.
func startGroup(t *testing.T, ids ...string) (group map[string]*server, leader *server) {
	t.Helper()
	listeners := make(map[string]net.Listener)
	addrs := make(map[string]string)
	keys := make(map[string]ed25519.PublicKey)
	for _, id := range ids {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[id], addrs[id] = l, l.Addr().String()
		keys[id] = demoNodeKey("test", id).Public().(ed25519.PublicKey)
	}
	group = make(map[string]*server)
	for _, id := range ids {
		peers := make(map[string]string)
		peerKeys := make(map[string]ed25519.PublicKey)
		for _, other := range ids {
			if other != id {
				peers[other], peerKeys[other] = addrs[other], keys[other]
			}
		}
		c := testConfig(t)
		c.cluster = &replication.Config{
			NodeID: id, Listener: listeners[id], Peers: peers,
			Identity: demoNodeKey("test", id), PeerKeys: peerKeys,
			MetaStore: faultinject.NewMemFS(),
			// A fenced leader is how the refused-ack test ends its wait; the
			// timeout leaves it time to get the write in first.
			HeartbeatInterval: 20 * time.Millisecond, ElectionTimeout: 600 * time.Millisecond,
		}
		s, err := newServer(c)
		if err != nil {
			t.Fatalf("newServer %s: %v", id, err)
		}
		t.Cleanup(s.close)
		group[id] = s
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range group {
			if s.isLeader() {
				return group, s
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return nil, nil
}

// reply is what a client sees of one response.
type reply struct {
	status int
	body   string
	token  string // the successor token, when the response rolled one
}

func do(h http.Handler, method, path string, form url.Values, token string) reply {
	req := httptest.NewRequest(method, path, strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if token != "" {
		req.Header.Set(authtoken.TokenHeader, token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{rec.Code, rec.Body.String(), rec.Header().Get(authtoken.TokenHeader)}
}

func sqlForm(subject, roles, sql string) url.Values {
	return url.Values{"subject": {subject}, "roles": {roles}, "sql": {sql}}
}

var mintedFields = regexp.MustCompile(`"(token|expires_unix)":("[^"]*"|[0-9]+)`)

// script drives every endpoint once or more and returns "status body" per
// step, with the minted token and its expiry (random, clock) blanked.
func script(t *testing.T, s *server) []string {
	t.Helper()
	h := s.mux(false)
	var out []string
	step := func(r reply) reply {
		out = append(out, fmt.Sprintf("%d %s", r.status, mintedFields.ReplaceAllString(r.body, `"$1":_`)))
		return r
	}
	ana := url.Values{"subject": {"ana"}, "roles": {"analyst"}}
	minted := step(do(h, "POST", "/token", ana, ""))
	var mr authtoken.MintResponse
	if err := json.Unmarshal([]byte(minted.body), &mr); err != nil || mr.Token == "" {
		t.Fatalf("mint: %d %q", minted.status, minted.body)
	}
	step(do(h, "POST", "/token", url.Values{"subject": {"mallory"}, "roles": {"analyst"}}, ""))
	first := step(do(h, "POST", "/query", sqlForm("ana", "analyst", "SELECT age, zip FROM patients WHERE age > 70"), mr.Token))
	if first.token == "" || first.token == mr.Token {
		t.Fatalf("token did not roll on the fast path: %q", first.token)
	}
	step(do(h, "POST", "/query", sqlForm("ana", "analyst", "SELECT name, zip FROM patients WHERE age > 80"), first.token))
	step(do(h, "POST", "/query", sqlForm("ana", "analyst", "SELECT age FROM patients"), mr.Token)) // replayed token
	step(do(h, "POST", "/query", sqlForm("mallory", "analyst", "SELECT age FROM patients"), ""))
	step(do(h, "GET", "/query", nil, ""))
	step(do(h, "POST", "/query", url.Values{"subject": {"ana"}}, ""))
	step(do(h, "POST", "/exec", sqlForm("dba", "analyst", "UPDATE patients SET zip = '00000' WHERE name = 'person-0003'"), ""))
	step(do(h, "POST", "/exec", sqlForm("ana", "analyst", "UPDATE patients SET zip = '1' WHERE name = 'person-0003'"), ""))
	step(do(h, "POST", "/query", sqlForm("ana", "analyst", "SELECT zip FROM patients WHERE name = 'person-0003'"), ""))
	step(do(h, "POST", "/agg", sqlForm("ana", "analyst", "SELECT COUNT(*) FROM patients"), ""))
	step(do(h, "POST", "/agg", sqlForm("mallory", "analyst", "SELECT COUNT(*) FROM patients"), ""))
	// {name, disease} is private: the aggregate's disease column comes back
	// withheld (or the request refused), never the values.
	byName := step(do(h, "POST", "/agg", sqlForm("ana", "analyst", "SELECT MIN(disease) FROM patients GROUP BY name"), ""))
	if byName.status == 200 {
		lines := strings.Split(strings.TrimSpace(byName.body), "\n")
		if len(lines) != 27 || lines[26] != "# masked by privacy constraints: MIN(disease)" {
			t.Errorf("MIN(disease) by name: %d lines ending %q", len(lines), lines[len(lines)-1])
		}
		for _, l := range lines[1:26] {
			if !strings.HasSuffix(l, "\tNULL") {
				t.Errorf("MIN(disease) by name released %q", l)
			}
		}
	} else if !strings.Contains(byName.body, "infer") {
		t.Errorf("MIN(disease) by name = %d %q", byName.status, byName.body)
	}
	step(do(h, "POST", "/explain", url.Values{"sql": {"SELECT age FROM patients WHERE age > 3"}}, ""))
	step(do(h, "POST", "/explain", url.Values{"sql": {"SELEC"}}, ""))
	step(do(h, "GET", "/audit", nil, ""))
	return out
}

func varKeys(s *server) []string {
	var keys []string
	for k := range s.vars() {
		if k != "securedb.cluster" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestModeEquivalence: the same scripted /token, /query, /exec, /agg,
// /explain, /audit sequence yields identical status codes and bodies from a
// single node and from the leader of a 3-node group, and both publish the
// same /debug/vars keys in the same shapes (the group adds securedb.cluster).
func TestModeEquivalence(t *testing.T) {
	single := startSingle(t)
	_, leader := startGroup(t, "n1", "n2", "n3")

	want, got := script(t, single), script(t, leader)
	if len(want) != len(got) {
		t.Fatalf("script lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("step %d differs:\nsingle node: %s\ngroup leader: %s", i, want[i], got[i])
		}
	}
	if !strings.HasPrefix(want[len(want)-1], "200 ") || strings.Count(want[len(want)-1], "\n") != 9 {
		t.Errorf("audit trail looks wrong: %q", want[len(want)-1])
	}

	if a, b := varKeys(single), varKeys(leader); !reflect.DeepEqual(a, b) {
		t.Errorf("/debug/vars keys differ: single %v, group %v", a, b)
	}
	for _, k := range varKeys(single) {
		if a, b := reflect.TypeOf(single.vars()[k]()), reflect.TypeOf(leader.vars()[k]()); a != b {
			t.Errorf("%s has shape %v on a single node, %v in a group", k, a, b)
		}
	}
	if _, ok := single.vars()["securedb.cluster"]; ok {
		t.Error("a single node publishes securedb.cluster")
	}
	if _, ok := leader.vars()["securedb.cluster"]; !ok {
		t.Error("a group member does not publish securedb.cluster")
	}
	if st, ok := single.vars()["securedb.authtoken"]().(authtoken.GateStats); !ok || st.Mint.Minted == 0 {
		t.Errorf("securedb.authtoken = %#v, want the mint gate's bare GateStats", single.vars()["securedb.authtoken"]())
	}
}

// TestFollowerServesReadsRefusesWrites: a replica answers /query and
// /explain through the same gate, refuses /exec and /token with the leader
// hint, and cannot be written through any route: at the parent of PR 24
// /query executed an UPDATE on a follower, which then held a row the leader
// never wrote.
func TestFollowerServesReadsRefusesWrites(t *testing.T) {
	group, leader := startGroup(t, "n1", "n2", "n3")
	if r := do(leader.mux(false), "POST", "/exec", sqlForm("dba", "analyst", "UPDATE patients SET zip = '4' WHERE name = 'person-0004'"), ""); r.status != 200 {
		t.Fatalf("leader exec: %d %s", r.status, r.body)
	}
	for id, s := range group {
		if s == leader {
			continue
		}
		h := s.mux(false)
		// The quorum that acknowledged the write need not include this
		// replica yet; wait for it to apply the commit.
		deadline := time.Now().Add(5 * time.Second)
		var r reply
		for {
			r = do(h, "POST", "/query", sqlForm("ana", "analyst", "SELECT zip FROM patients WHERE name = 'person-0004'"), "")
			if r.status == 200 && strings.Contains(r.body, "\n4\n") || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if r.status != 200 || !strings.Contains(r.body, "\n4\n") {
			t.Errorf("%s: replica read = %d %q, want the leader's committed row", id, r.status, r.body)
		}
		if r := do(h, "POST", "/explain", url.Values{"sql": {"SELECT age FROM patients"}}, ""); r.status != 200 {
			t.Errorf("%s: /explain on a replica: %d %s", id, r.status, r.body)
		}
		update := sqlForm("dba", "analyst", "UPDATE patients SET zip = '5' WHERE name = 'person-0004'")
		for _, path := range []string{"/exec", "/token"} {
			r := do(h, "POST", path, update, "")
			if r.status != http.StatusServiceUnavailable || !strings.Contains(r.body, "writes go to "+leader.nodeID) {
				t.Errorf("%s: %s on a replica = %d %q, want 503 naming the leader", id, path, r.status, r.body)
			}
		}
		// The read routes refuse a write by its kind, and the replica's
		// database refuses it whatever route might reach it.
		for _, path := range []string{"/query", "/agg"} {
			if r := do(h, "POST", path, update, ""); r.status != http.StatusForbidden || !strings.Contains(r.body, "not a SELECT") {
				t.Errorf("%s: UPDATE on %s of a replica = %d %q, want 403", id, path, r.status, r.body)
			}
		}
		if _, err := s.serving.Load().DB().Exec(&policy.Subject{ID: "dba", Roles: []string{"analyst"}}, update.Get("sql")); err == nil || !strings.Contains(err.Error(), "read-only replica") {
			t.Errorf("%s: UPDATE straight into a replica's database: %v, want the read-only refusal", id, err)
		}
		all := sqlForm("ana", "analyst", "SELECT zip, age FROM patients")
		if mine, theirs := do(h, "POST", "/query", all, ""), do(leader.mux(false), "POST", "/query", all, ""); mine != theirs || mine.status != 200 {
			t.Errorf("%s: replica read after the refused writes differs from the leader's:\n%v\n%v", id, mine, theirs)
		}
	}
}

// TestExecAckWaitsOnOwnCommit: two concurrent /exec requests on the leader
// of a 3-node group each wait on the LSN of their OWN commit record — not on
// whatever the log tail is by then — and a write whose quorum wait fails
// answers 503 with no partial success body.
func TestExecAckWaitsOnOwnCommit(t *testing.T) {
	group, leader := startGroup(t, "n1", "n2", "n3")

	var mu sync.Mutex
	awaited := make(map[string]int64) // zip written -> LSN its ack waited on
	var wg sync.WaitGroup
	for i, zip := range []string{"11111", "22222"} {
		wg.Add(1)
		go func(i int, zip string) {
			defer wg.Done()
			form := sqlForm("dba", "analyst", fmt.Sprintf("UPDATE patients SET zip = '%s' WHERE name = 'person-%04d'", zip, i+1))
			req := httptest.NewRequest("POST", "/exec", strings.NewReader(form.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			rec := httptest.NewRecorder()
			serveExec(rec, req, leader.serving.Load(), leader.activeAuth(), func(ctx context.Context, lsn int64) error {
				mu.Lock()
				awaited[zip] = lsn
				mu.Unlock()
				return leader.committed(ctx, lsn)
			})
			if rec.Code != 200 || rec.Body.String() != "ok, 1 row(s) affected\n" {
				t.Errorf("exec %s: %d %q", zip, rec.Code, rec.Body.String())
			}
		}(i, zip)
	}
	wg.Wait()

	// Read the leader's log back: the record at each awaited LSN must be the
	// Commit of the transaction that wrote that request's value.
	cur, err := leader.dbWAL.OpenCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	recs := make(map[int64]reldb.LogRecord)
	for {
		r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		var rec reldb.LogRecord
		if err := json.Unmarshal(r.Payload, &rec); err != nil {
			t.Fatal(err)
		}
		recs[int64(r.LSN)] = rec
	}
	if len(awaited) != 2 || awaited["11111"] == awaited["22222"] {
		t.Fatalf("awaited LSNs = %v, want two distinct commits", awaited)
	}
	for zip, lsn := range awaited {
		commit, ok := recs[lsn]
		if !ok || commit.Op != reldb.OpCommit {
			t.Fatalf("ack for %s waited on LSN %d, which holds %+v, not a Commit record", zip, lsn, commit)
		}
		if len(commit.Changes) != 1 || fmt.Sprint(commit.Changes[0].Row[1]) != zip {
			t.Errorf("ack for %s waited on LSN %d, a commit that wrote %v", zip, lsn, commit.Changes)
		}
	}

	// Lose the quorum: the write lands in the leader's log, its ack cannot
	// be backed by a majority, and the client must see a bare 503.
	for _, s := range group {
		if s != leader {
			s.node.Stop()
		}
	}
	r := do(leader.mux(false), "POST", "/exec", sqlForm("dba", "analyst", "UPDATE patients SET zip = '33333' WHERE name = 'person-0003'"), "")
	if r.status != http.StatusServiceUnavailable || !strings.HasPrefix(r.body, "commit not acknowledged by quorum") || strings.Contains(r.body, "row(s) affected") {
		t.Fatalf("exec without a quorum = %d %q, want a 503 refusal and no success body", r.status, r.body)
	}
}

// TestValidateFlags: cluster start-up refuses the flag values it cannot
// honour instead of silently ignoring them; a single node takes them all.
func TestValidateFlags(t *testing.T) {
	cluster := flags{walSync: "always", dataDir: "d", nodeID: "n1", replicaAddr: "127.0.0.1:1", peersSpec: "n2=127.0.0.1:2"}
	with := func(edit func(*flags)) flags {
		f := cluster
		edit(&f)
		return f
	}
	cases := []struct {
		name    string
		f       flags
		refused string // substring of the error; empty = accepted
	}{
		{"single node, defaults", flags{walSync: "always"}, ""},
		{"single node, every wal knob", flags{walSync: "interval", dataDir: "d", ckptEvery: time.Second}, ""},
		{"single node, unknown sync policy", flags{walSync: "sometimes"}, "sometimes"},
		{"cluster", cluster, ""},
		{"cluster, -walsync interval", with(func(f *flags) { f.walSync = "interval" }), "-walsync always"},
		{"cluster, -walsync never", with(func(f *flags) { f.walSync = "never" }), "-walsync always"},
		{"cluster, -checkpoint", with(func(f *flags) { f.ckptEvery = time.Minute }), "-checkpoint"},
		{"cluster, no -data", with(func(f *flags) { f.dataDir = "" }), "-data"},
		{"cluster, no -peers", with(func(f *flags) { f.peersSpec = "" }), "-peers"},
	}
	for _, c := range cases {
		_, err := c.f.validate()
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("%s: err = %v, want a refusal mentioning %q", c.name, err, c.refused)
		}
	}
}
