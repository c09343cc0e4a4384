package authtoken_test

import (
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
)

var benchAuth *authtoken.AuthResult

// BenchmarkAuthenticateRolling is one request's worth of Gate.Authenticate
// on the token fast path. recognised is a rolling client against one gate:
// every presented token is the successor that gate handed out one call
// earlier, its chain's next step, with a fresh signature every ChainLen
// calls. foreign presents tokens a second minter on the same keyring
// signed — the any-replica path, where nothing is remembered and every
// presentation pays ed25519.Verify as well as a fresh chain's signature.
func BenchmarkAuthenticateRolling(b *testing.B) {
	newGate := func(b *testing.B) (*authtoken.Gate, *authtoken.Minter) {
		g, ring := newTestGate(b, 2*time.Minute)
		other, err := authtoken.NewMinter(ring, credential.NewVerifier(), allowAll{}, 2*time.Minute)
		if err != nil {
			b.Fatalf("minter: %v", err)
		}
		return g, other
	}
	s := subj("ana", "analyst")
	now := time.Now()

	b.Run("recognised", func(b *testing.B) {
		g, other := newGate(b)
		first, err := other.Mint(s, now)
		if err != nil {
			b.Fatalf("mint: %v", err)
		}
		raw := first.Encode()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := g.Authenticate(s, raw, now)
			if err != nil {
				b.Fatalf("op %d: %v", i, err)
			}
			raw = res.Token.Encode()
			benchAuth = res
		}
	})
	b.Run("foreign", func(b *testing.B) {
		g, other := newGate(b)
		raws := make([][]byte, b.N)
		for i := range raws {
			t, err := other.Mint(s, now)
			if err != nil {
				b.Fatalf("mint: %v", err)
			}
			raws[i] = t.Encode()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := g.Authenticate(s, raws[i], now)
			if err != nil {
				b.Fatalf("op %d: %v", i, err)
			}
			benchAuth = res
		}
	})
}
