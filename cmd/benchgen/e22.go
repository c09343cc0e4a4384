package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/core"
	"webdbsec/internal/credential"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/policy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/sysr"
)

// E22 measures the stateless-token fast path (PR 9) over the real HTTP
// surface: the securedb-shaped /query endpoint behind an
// authtoken.Service, driven by concurrent clients. Three auth regimes
// per concurrency level:
//
//   - wallet: every request presents a DISTINCT pre-generated wallet
//     (24 credentials each) and no token — the full slow path, one
//     complete credential evaluation plus the MintGate decision per
//     request. Distinct wallets are the honest baseline: reusing one
//     would hand the slow path PR 9's memoized-verification satellite
//     and erase the cost being measured.
//   - token: each client runs the explicit mint once, then rides the
//     fast path, presenting the rolling successor on every hop — the
//     next step of a hash chain, with one Ed25519 signature per
//     authtoken.ChainLen requests.
//   - memoized wallet: one shared wallet re-presented every request,
//     reported separately — the satellite's best case, sitting between
//     the two.
//
// A replay pass then re-presents consumed tokens and reports the
// verifier's replay-reject accounting.

// e22Row is one concurrency level's measurements.
type e22Row struct {
	Clients        int     `json:"clients"`
	Requests       int     `json:"requests_per_path"`
	WalletP50US    float64 `json:"wallet_p50_us"`
	WalletP99US    float64 `json:"wallet_p99_us"`
	WalletReqSec   float64 `json:"wallet_reqs_per_sec"`
	TokenP50US     float64 `json:"token_p50_us"`
	TokenP99US     float64 `json:"token_p99_us"`
	TokenReqSec    float64 `json:"token_reqs_per_sec"`
	MemoP50US      float64 `json:"memo_wallet_p50_us"`
	P50Speedup     float64 `json:"token_vs_wallet_p50_speedup"`
	MintPerSec     float64 `json:"mints_per_sec_token_run"`
	FastPathRate   float64 `json:"fast_path_hit_rate"`
	MemoHits       uint64  `json:"credential_memo_hits"`
	MemoMisses     uint64  `json:"credential_memo_misses"`
	ReplayEntries  int     `json:"replay_cache_entries_after_token_run"`
	ReplayEvicts   uint64  `json:"replay_cache_evictions"`
	ReplayRejects  uint64  `json:"replay_rejects"`
	ReplayAttempts int     `json:"replay_attempts"`
}

// e22CredsPerWallet is the wallet breadth: every slow-path request
// re-verifies this many Ed25519 credential signatures, exactly what the
// token's single verification replaces. 24 models a federated subject —
// role, clearance and attribute credentials from several authorities.
const e22CredsPerWallet = 24

// e22MintGate is the benchmark's policy decision: the System R catalog
// the /query pipeline itself consults.
type e22MintGate struct{ w *core.SecureWebDB }

func (g e22MintGate) AllowMint(s *policy.Subject) bool {
	return g.w.DB().Grants().HasPrivilege(s.ID, sysr.Select, "patients")
}

// e22Env is one freshly-built serving stack: SecureWebDB demo schema,
// token service, HTTP server, and the credential authority that issues
// the client wallets.
type e22Env struct {
	ts   *httptest.Server
	svc  *authtoken.Service
	cv   *credential.Verifier
	auth *credential.Authority
}

func e22NewEnv(rows int, ttl time.Duration) (*e22Env, error) {
	w := core.NewSecureWebDB(core.Config{})
	dba := &policy.Subject{ID: "dba"}
	if err := w.DB().CreateTable(dba, "CREATE TABLE patients (name TEXT, zip TEXT, age INT, disease TEXT)"); err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		stmt := fmt.Sprintf("INSERT INTO patients VALUES ('p%d', '9%04d', %d, 'none')", i, i%100, 20+i%60)
		if _, err := w.DB().Exec(dba, stmt); err != nil {
			return nil, err
		}
	}
	if err := w.DB().Grants().Grant("dba", "ana", sysr.Select, "patients", false); err != nil {
		return nil, err
	}
	pred := reldb.MustParse("SELECT * FROM patients WHERE age >= 0").(*reldb.SelectStmt).Where
	if err := w.DB().AddRowPolicy(&reldb.RowPolicy{
		Name: "analysts-see-all", Table: "patients",
		Subject: policy.SubjectSpec{Roles: []string{"analyst"}}, Pred: pred,
	}); err != nil {
		return nil, err
	}

	auth, err := credential.NewAuthority("bench-ca")
	if err != nil {
		return nil, err
	}
	cv := credential.NewVerifier()
	cv.TrustAuthority(auth)
	ring, err := keymgmt.NewMintKeyring(2)
	if err != nil {
		return nil, err
	}
	minter, err := authtoken.NewMinter(ring, cv, e22MintGate{w: w}, ttl)
	if err != nil {
		return nil, err
	}
	svc := &authtoken.Service{Gate: &authtoken.Gate{
		Verifier: authtoken.NewVerifier(ring, ttl, 0, 0),
		Minter:   minter,
	}}

	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(rw http.ResponseWriter, r *http.Request) {
		subj, ok := svc.Authorize(rw, r)
		if !ok {
			return
		}
		out, err := w.Query(subj, r.FormValue("sql"))
		if err != nil {
			http.Error(rw, err.Error(), http.StatusForbidden)
			return
		}
		fmt.Fprintln(rw, len(out.Result.Rows))
	})
	mux.HandleFunc("/token", svc.MintHandler())
	return &e22Env{ts: httptest.NewServer(mux), svc: svc, cv: cv, auth: auth}, nil
}

// e22Wallet issues a wallet of e22CredsPerWallet distinct credentials
// for subject ana; the serial makes every wallet's fingerprint unique.
func e22Wallet(auth *credential.Authority, serial int) (*credential.Wallet, error) {
	w := credential.NewWallet("ana")
	for c := 0; c < e22CredsPerWallet; c++ {
		cred := auth.Issue("analyst", "ana", map[string]string{
			"serial": fmt.Sprintf("%d-%d", serial, c),
		})
		if err := w.Add(cred); err != nil {
			return nil, err
		}
	}
	return w, nil
}

const e22SQL = "SELECT age FROM patients"

// e22Post issues one /query and returns its latency plus the successor
// token header (empty when none).
func e22Post(client *http.Client, baseURL, wallet, token string) (time.Duration, string, error) {
	form := url.Values{"subject": {"ana"}, "roles": {"analyst"}, "sql": {e22SQL}}
	if wallet != "" {
		form.Set("wallet", wallet)
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/query", strings.NewReader(form.Encode()))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if token != "" {
		req.Header.Set(authtoken.TokenHeader, token)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	lat := time.Since(t0)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("query: status %d", resp.StatusCode)
	}
	return lat, resp.Header.Get(authtoken.TokenHeader), nil
}

func e22Mint(client *http.Client, baseURL string) (string, error) {
	resp, err := client.PostForm(baseURL+"/token", url.Values{"subject": {"ana"}, "roles": {"analyst"}})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("mint: status %d", resp.StatusCode)
	}
	var mr authtoken.MintResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return "", err
	}
	return mr.Token, nil
}

// e22Run drives clients workers, perClient requests each, through fn
// (which issues one request for worker w, request i and returns its
// latency). Returns sorted latencies and the wall-clock elapsed.
func e22Run(clients, perClient int, fn func(w, i int, c *http.Client) (time.Duration, error)) ([]time.Duration, time.Duration, error) {
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for wk := 0; wk < clients; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			c := &http.Client{}
			for i := 0; i < perClient; i++ {
				lat, err := fn(wk, i, c)
				if err != nil {
					errs[wk] = err
					return
				}
				lats[wk] = append(lats[wk], lat)
			}
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, elapsed, nil
}

func e22Pct(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))].Nanoseconds()) / 1e3
}

// e22Round measures one concurrency level on a fresh environment.
func e22Round(clients, perClient, replays int) (e22Row, error) {
	env, err := e22NewEnv(24, time.Minute)
	if err != nil {
		return e22Row{}, err
	}
	defer env.ts.Close()

	// Slow path: one unique wallet per request, pre-generated and
	// pre-encoded so issuance and encoding stay out of the measurement.
	wallets := make([]string, clients*perClient)
	for i := range wallets {
		w, err := e22Wallet(env.auth, i)
		if err != nil {
			return e22Row{}, err
		}
		if wallets[i], err = authtoken.EncodeWallet(w); err != nil {
			return e22Row{}, err
		}
	}
	walletLats, walletWall, err := e22Run(clients, perClient, func(w, i int, c *http.Client) (time.Duration, error) {
		lat, _, err := e22Post(c, env.ts.URL, wallets[w*perClient+i], "")
		return lat, err
	})
	if err != nil {
		return e22Row{}, err
	}
	memoHits, memoMisses := env.cv.MemoStats()

	// Memoized slow path: one shared wallet, every request after the
	// first per worker a memo hit.
	shared, err := e22Wallet(env.auth, -1)
	if err != nil {
		return e22Row{}, err
	}
	sharedEnc, err := authtoken.EncodeWallet(shared)
	if err != nil {
		return e22Row{}, err
	}
	memoLats, _, err := e22Run(clients, perClient, func(w, i int, c *http.Client) (time.Duration, error) {
		lat, _, err := e22Post(c, env.ts.URL, sharedEnc, "")
		return lat, err
	})
	if err != nil {
		return e22Row{}, err
	}

	// Fast path: mint once per client, then ride the rolling token. The
	// last token per client is kept for the replay pass.
	mintedBefore := env.svc.Gate.Stats().Mint.Minted
	lastTok := make([]string, clients)
	tokenLats, tokenWall, err := e22Run(clients, perClient, func(w, i int, c *http.Client) (time.Duration, error) {
		if lastTok[w] == "" {
			tok, err := e22Mint(c, env.ts.URL)
			if err != nil {
				return 0, err
			}
			lastTok[w] = tok
		}
		lat, next, err := e22Post(c, env.ts.URL, "", lastTok[w])
		if err != nil {
			return 0, err
		}
		if next == "" {
			return 0, fmt.Errorf("no successor token on fast path")
		}
		lastTok[w] = next
		return lat, nil
	})
	if err != nil {
		return e22Row{}, err
	}
	mintRate := float64(env.svc.Gate.Stats().Mint.Minted-mintedBefore) / tokenWall.Seconds()

	// Replay pass: burn each client's live token once, then re-present
	// it; every re-presentation must be rejected by the replay cache.
	replayedBefore := env.svc.Gate.Verifier.Stats().Replayed
	client := &http.Client{}
	attempts := 0
	for w := 0; w < clients && attempts < replays; w++ {
		if _, _, err := e22Post(client, env.ts.URL, "", lastTok[w]); err != nil {
			return e22Row{}, err
		}
		for r := 0; r < replays/clients+1 && attempts < replays; r++ {
			form := url.Values{"subject": {"ana"}, "roles": {"analyst"}, "sql": {e22SQL}}
			req, _ := http.NewRequest(http.MethodPost, env.ts.URL+"/query", strings.NewReader(form.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			req.Header.Set(authtoken.TokenHeader, lastTok[w])
			resp, err := client.Do(req)
			if err != nil {
				return e22Row{}, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				return e22Row{}, fmt.Errorf("replayed token: status %d, want 401", resp.StatusCode)
			}
			attempts++
		}
	}

	st := env.svc.Gate.Stats()
	row := e22Row{
		Clients:     clients,
		Requests:    clients * perClient,
		WalletP50US: e22Pct(walletLats, 0.50), WalletP99US: e22Pct(walletLats, 0.99),
		WalletReqSec: float64(len(walletLats)) / walletWall.Seconds(),
		TokenP50US:   e22Pct(tokenLats, 0.50), TokenP99US: e22Pct(tokenLats, 0.99),
		TokenReqSec:  float64(len(tokenLats)) / tokenWall.Seconds(),
		MemoP50US:    e22Pct(memoLats, 0.50),
		MintPerSec:   mintRate,
		FastPathRate: st.FastPathHitRate,
		MemoHits:     memoHits, MemoMisses: memoMisses,
		ReplayEntries: st.Verifier.ReplayEntries, ReplayEvicts: st.Verifier.ReplayEvictions,
		ReplayRejects: st.Verifier.Replayed - replayedBefore, ReplayAttempts: attempts,
	}
	if row.TokenP50US > 0 {
		row.P50Speedup = row.WalletP50US / row.TokenP50US
	}
	return row, nil
}

func e22Rows(quick bool) ([]e22Row, error) {
	type level struct{ clients, perClient int }
	levels := []level{{1, 120}, {16, 40}, {64, 16}}
	replays := 48
	if quick {
		levels = []level{{1, 40}, {16, 12}}
		replays = 16
	}
	var rows []e22Row
	for _, l := range levels {
		row, err := e22Round(l.clients, l.perClient, replays)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE22(quick bool) {
	rows, err := e22Rows(quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "E22: %v\n", err)
		return
	}
	t := &table{header: []string{"clients", "wallet p50", "wallet p99", "memo p50", "token p50", "token p99", "p50 speedup", "token req/s", "mints/s", "fast-path rate", "replay rejects"}}
	for _, r := range rows {
		t.add(fmt.Sprint(r.Clients),
			dur(time.Duration(r.WalletP50US*1e3)), dur(time.Duration(r.WalletP99US*1e3)),
			dur(time.Duration(r.MemoP50US*1e3)),
			dur(time.Duration(r.TokenP50US*1e3)), dur(time.Duration(r.TokenP99US*1e3)),
			fmt.Sprintf("%.1fx", r.P50Speedup),
			fmt.Sprintf("%.0f", r.TokenReqSec), fmt.Sprintf("%.0f", r.MintPerSec),
			fmt.Sprintf("%.2f", r.FastPathRate),
			fmt.Sprintf("%d/%d", r.ReplayRejects, r.ReplayAttempts))
	}
	t.print()
}

// e22Snapshot is the record -snapshot -run E22 writes (BENCH_PR9.json).
type e22Snapshot struct {
	Experiment  string   `json:"experiment"`
	Description string   `json:"description"`
	Rows        []e22Row `json:"rows"`
}

// writeSnapshotE22 measures E22 and writes the JSON record to path.
func writeSnapshotE22(path string, quick bool) error {
	rows, err := e22Rows(quick)
	if err != nil {
		return err
	}
	snap := e22Snapshot{
		Experiment:  "E22",
		Description: "Stateless Ed25519 token fast path over HTTP: per-request full wallet evaluation (24 distinct credentials) vs memoized wallet vs single-verification rolling tokens, with mint rate, fast-path hit rate and replay-cache rejects",
		Rows:        rows,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
