// Command uddiserver runs a UDDI registry as an HTTP web service in one of
// the paper's three deployment models (§2.2, §4.1):
//
//	-mode two-party    the provider hosts its own registry (default)
//	-mode trusted      a trusted third-party discovery agency
//	-mode untrusted    an untrusted agency serving Merkle-authenticated
//	                   views signed by a built-in demo provider
//
// The server speaks the envelope protocol of internal/wsa on a single POST
// endpoint; GET /describe returns the service description. With -demo, the
// registry is pre-populated with synthetic entries.
package main

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
	"webdbsec/internal/debugz"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/policy"
	"webdbsec/internal/synth"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wsa"
)

// registryMintGate is the registry's mint policy: only an identified
// sender whose wallet carried at least one verified credential from a
// trusted authority (-trustca) may hold a token. The wallet itself was
// fully evaluated by the minter before this decision runs.
type registryMintGate struct{}

func (registryMintGate) AllowMint(s *policy.Subject) bool {
	return s.ID != "" && s.Wallet != nil && len(s.Wallet.Credentials) > 0
}

// newRegistryAuth builds the front door of the envelope surface: wallets
// verify against the -trustca authorities, tokens against a fresh local
// keyring.
func newRegistryAuth(ttl time.Duration, trustCAs string) (*authtoken.Gate, error) {
	ring, err := keymgmt.NewMintKeyring(2)
	if err != nil {
		return nil, err
	}
	cv := credential.NewVerifier()
	for _, spec := range strings.Split(trustCAs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, hexKey, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("-trustca %q: want name=hexpubkey", spec)
		}
		raw, err := hex.DecodeString(hexKey)
		if err != nil || len(raw) != ed25519.PublicKeySize {
			return nil, fmt.Errorf("-trustca %q: bad ed25519 public key", spec)
		}
		cv.Trust(name, ed25519.PublicKey(raw))
	}
	return authtoken.NewGate(ring, cv, registryMintGate{}, ttl)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	mode := flag.String("mode", "two-party", "deployment: two-party | trusted | untrusted")
	demo := flag.Int("demo", 25, "number of synthetic demo entries (0 = none)")
	debug := flag.Bool("debug", false, "expose /debug/pprof and /debug/vars (off by default)")
	tokenTTL := flag.Duration("tokenttl", 2*time.Minute, "auth-token lifetime; 0 turns authentication off; requests are served as the identity they assert")
	trustCAs := flag.String("trustca", "", "comma-separated name=hexpubkey credential authorities trusted for wallet qualification")
	flag.Parse()

	srv := &wsa.RegistryServer{Registry: uddi.NewRegistry(nil)}
	if *tokenTTL > 0 {
		auth, err := newRegistryAuth(*tokenTTL, *trustCAs)
		if err != nil {
			log.Fatalf("uddiserver: token auth: %v", err)
		}
		srv.Auth = auth
	}
	var cachedAgency *uddi.UntrustedAgency

	switch *mode {
	case "two-party", "trusted":
		// Both are served by the plain registry; in a real deployment they
		// differ in who operates the process, not in the code path.
	case "untrusted":
		base := policy.NewBase(nil)
		base.MustAdd(&policy.Policy{
			Name:    "entries-public",
			Subject: policy.SubjectSpec{IDs: []string{"*"}},
			Object:  policy.ObjectSpec{Doc: "*"},
			Priv:    policy.Read,
			Sign:    policy.Permit,
			Prop:    policy.Cascade,
		})
		base.MustAdd(&policy.Policy{
			Name:    "bindings-partner-only",
			Subject: policy.SubjectSpec{NotRoles: []string{"partner"}},
			Object:  policy.ObjectSpec{Doc: "*", Path: "//bindingTemplate"},
			Priv:    policy.Read,
			Sign:    policy.Deny,
			Prop:    policy.Cascade,
		})
		agency := uddi.NewUntrustedAgency(base)
		prov, err := uddi.NewProvider("demo-provider")
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < *demo; i++ {
			e := synth.Entity(fmt.Sprintf("be-%05d", i), "logistics", 2)
			entry, err := prov.Sign(e)
			if err != nil {
				log.Fatal(err)
			}
			if err := agency.Publish(entry); err != nil {
				log.Fatal(err)
			}
		}
		srv.Agency = agency
		cachedAgency = agency
		fmt.Printf("untrusted agency: %d signed entries; provider key (hex) for requestor key directories:\n%x\n",
			*demo, prov.Signer().PublicKey())
	default:
		fmt.Fprintf(os.Stderr, "uddiserver: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	if *mode != "untrusted" && *demo > 0 {
		synth.Registry(1, srv.Registry, *demo)
		log.Printf("registry pre-populated with %d entries", *demo)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	if srv.Auth != nil {
		mux.HandleFunc("/token", srv.Auth.MintHandler())
	}
	mux.HandleFunc("/describe", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/xml")
		io.WriteString(w, srv.Describe("http://"+r.Host+"/").ToXML().Canonical())
	})
	if *debug {
		debugz.Mount(mux)
		if cachedAgency != nil {
			debugz.Publish("uddiserver.decision_cache", func() any { return cachedAgency.CacheStats() })
		}
		if srv.Auth != nil {
			debugz.Publish("uddiserver.authtoken", func() any { return srv.Auth.Stats() })
		}
		log.Printf("uddiserver: debug endpoints enabled at /debug/pprof and /debug/vars")
	}
	// Serve with timeouts and graceful drain: the registry is the
	// federation's discovery backbone, and a wedged or slow client must
	// not take it down (nor a SIGTERM cut off in-flight inquiries).
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("uddiserver (%s mode) listening on %s", *mode, *addr)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("uddiserver: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("uddiserver: shutdown: %v", err)
	}
}
