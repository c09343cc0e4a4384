package main

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"

	"webdbsec/internal/uddi"
	"webdbsec/internal/wsa"
	"webdbsec/internal/wsig"
)

// A checker reduces a reply to its outcome: the part of it that must be the
// same every time the request is sent. A measured reply is correct when its
// outcome equals the one the warm-up recorded for the request's oracle slot.
type checker func(r *request, status int, body []byte) string

// updateOutcome is the one reply an UPDATE may get.
const updateOutcome = "200\nok, 1 row(s) affected\n"

// expected is the outcome r must produce.
func expected(r *request, oracle []string) string {
	if r.slot < 0 {
		return updateOutcome
	}
	return oracle[r.slot]
}

// exactOutcome is the read-only securedb workloads' checker: nothing a read
// returns may change once the inference history has settled, so the outcome
// is the status and the whole body.
func exactOutcome(_ *request, status int, body []byte) string {
	return fmt.Sprintf("%d\n%s", status, body)
}

// mixedOutcome is mixed_rw_durable's checker. UPDATEs rewrite zip while reads
// run, so a read's outcome is its status, header line, row count and trailing
// notes — reads filter on name and age only, which no UPDATE touches. An
// UPDATE's outcome is its whole reply.
func mixedOutcome(r *request, status int, body []byte) string {
	if r.class == "update" || status != 200 {
		return exactOutcome(r, status, body)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	rows, notes := 0, ""
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "#") {
			notes += l + "\n"
		} else {
			rows++
		}
	}
	return fmt.Sprintf("%d\n%s\nrows=%d\n%s", status, lines[0], rows, notes)
}

// inquiryChecker is uddi_untrusted's checker, and the requestor's side of the
// paper's third-party protocol: decode the authenticated result, verify the
// Merkle proof against the provider's key, decode the entity. The outcome is
// the verified view, which is what must not change; the signature bytes
// differ from one provider key to the next and are covered by Verify. tr is
// nil over HTTP; the replay passes its tracer to time the requestor's stages.
func inquiryChecker(dir *wsig.KeyDirectory, tr *tracer) checker {
	return func(_ *request, status int, body []byte) string {
		id := tr.begin("wsa.client_decode")
		env, err := wsa.DecodeEnvelope(bytes.NewReader(body))
		var res *uddi.AuthenticatedResult
		if err == nil && env.Fault == "" {
			res, err = wsa.DecodeAuthenticated(env.Body)
		}
		tr.end(id)
		if err != nil {
			return "undecodable: " + err.Error()
		}
		if env.Fault != "" {
			return fmt.Sprintf("%d fault", status)
		}
		id = tr.begin("merkle.verify")
		err = res.Verify(dir)
		tr.end(id)
		if err != nil {
			return "unverified: " + err.Error()
		}
		if _, err := res.Entity(); err != nil {
			return "bad entity: " + err.Error()
		}
		return fmt.Sprintf("%d\n%s", status, res.View.Canonical())
	}
}

var hexKeyLine = regexp.MustCompile(`(?m)^[0-9a-f]{64}$`)

// providerDirectory builds the requestor's key directory from the public
// key uddiserver printed for its demo provider at start.
func providerDirectory(serverLog string) (*wsig.KeyDirectory, error) {
	data, err := os.ReadFile(serverLog)
	if err != nil {
		return nil, err
	}
	keys := hexKeyLine.FindAll(data, -1)
	if len(keys) == 0 {
		return nil, fmt.Errorf("no provider key in %s", serverLog)
	}
	raw, err := hex.DecodeString(string(keys[len(keys)-1]))
	if err != nil || len(raw) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("provider key in %s is not an ed25519 public key", serverLog)
	}
	dir := wsig.NewKeyDirectory()
	dir.Register("demo-provider", ed25519.PublicKey(raw))
	return dir, nil
}

// statusFits says whether a settled outcome has the status its request's
// class demands. The oracle is recorded from the server under test, so
// without this a server that refused everything would agree with itself.
func statusFits(class, outcome string) bool {
	status, _, _ := strings.Cut(outcome, "\n")
	status, _, _ = strings.Cut(status, " ")
	switch class {
	case "deny", "infer-deny":
		return status == "401" || status == "403"
	case "fault":
		return len(status) == 3 && status[0] == '4' && status != "401" && status != "403"
	default:
		return status == "200"
	}
}

// maxOraclePasses bounds the warm-up. The inference history only grows and
// the first pass, in index order, already releases everything the table can
// release, so the second pass settles; a third confirms.
const maxOraclePasses = 5

// buildOracle issues every slot's representative request until the vector
// of outcomes stops changing, and returns that vector. The first pass is
// sequential in index order on one connection, because the order in which
// a subject's history grows decides which requests are refused; later passes
// only confirm and are split over the connections. send does one request.
func buildOracle(reps []*request, lanes int, send func(lane int, r *request) (string, error)) ([]string, int, error) {
	oracle := make([]string, len(reps))
	for i, r := range reps {
		out, err := send(0, r)
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		oracle[i] = out
	}
	sent := len(reps)
	for pass := 2; pass <= maxOraclePasses; pass++ {
		var (
			mu      sync.Mutex
			changed int
			first   error
			wg      sync.WaitGroup
		)
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func() {
				defer guard()
				defer wg.Done()
				for i := lane; i < len(reps); i += lanes {
					out, err := send(lane, reps[i])
					mu.Lock()
					if err != nil && first == nil {
						first = fmt.Errorf("warm-up request %d: %w", i, err)
					}
					if err == nil && out != oracle[i] {
						oracle[i] = out
						changed++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		sent += len(reps)
		if first != nil {
			return nil, sent, first
		}
		if changed == 0 {
			for i, r := range reps {
				if !statusFits(r.class, oracle[i]) {
					return nil, sent, fmt.Errorf("settled outcome of %s request %d (%s) has the wrong status: %.80q", r.class, i, r.sql+r.key, oracle[i])
				}
			}
			return oracle, sent, nil
		}
	}
	return nil, sent, fmt.Errorf("outcomes still changing after %d warm-up passes", maxOraclePasses)
}
