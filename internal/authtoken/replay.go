package authtoken

import (
	"crypto/ed25519"
	"crypto/sha256"
	"sync"
)

// replayShards fixes the shard count; like the decision cache, sixteen
// is plenty to keep verification's one map touch off a global lock at
// request concurrency.
const replayShards = 16

// replayCache is the sharded bounded nonce set behind single-use tokens.
// Consuming a nonce is one mutex + map insert on 1/16th of the space;
// entries die with their token (issued-at + TTL + skew, after which the
// stateless timestamp check rejects the token anyway, so remembering the
// nonce buys nothing). Each shard is bounded: when full it evicts its
// oldest live entry FIFO — that briefly re-opens the replay window for
// the evicted token, so evictions are counted and surfaced in Stats
// rather than hidden (size the cache to the token population, not the
// other way around).
//
// The same shards hold the issued table: a digest of every token this
// node has signed and not yet been shown (see issuedDigest), keyed by the
// token's nonce so remembering, recognising and consuming one token all
// land on one shard and one mutex. It shares the shard's bound and the
// nonce set's expiry rule, and a consumed nonce costs what it always did:
// an entry leaves the issued table the moment its token is presented.
type replayCache struct {
	shards [replayShards]replayShard
}

type replayShard struct {
	mu       sync.Mutex
	capacity int              // seclint:guardedby mu
	seen     map[uint64]int64 // seclint:guardedby mu
	order    []replayEntry    // seclint:guardedby mu
	evicted  uint64           // seclint:guardedby mu

	// issued maps the nonce of an unpresented token signed here to its
	// digest; issuedOrder is its FIFO, for the bound and for expiry.
	// Losing an entry early (eviction, a colliding nonce) only sends the
	// token to ed25519.Verify, so neither structure tracks ownership the
	// way seen/order must.
	//
	// seclint:secret
	issued      map[uint64][sha256.Size]byte // seclint:guardedby mu
	issuedOrder []replayEntry                // seclint:guardedby mu
}

type replayEntry struct {
	nonce   uint64
	expires int64
}

// newReplayCache bounds the cache to roughly capacity nonces overall.
func newReplayCache(capacity int) *replayCache {
	if capacity < replayShards {
		capacity = replayShards
	}
	per := (capacity + replayShards - 1) / replayShards
	c := &replayCache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.capacity = per
		s.seen = make(map[uint64]int64, per)
		s.issued = make(map[uint64][sha256.Size]byte)
		s.mu.Unlock()
	}
	return c
}

// shardFor mixes the (already random) nonce so even adversarially minted
// nonce patterns spread across shards.
func (c *replayCache) shardFor(nonce uint64) *replayShard {
	h := nonce * 0x9e3779b97f4a7c15 // Fibonacci hashing
	return &c.shards[h>>(64-4)]
}

// consume marks the nonce used until expires. It returns false — replay —
// when the nonce is already live.
func (c *replayCache) consume(nonce uint64, expires, now int64) bool {
	s := c.shardFor(nonce)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Drop entries whose tokens can no longer verify; this also frees
	// the capacity their nonces were holding. A nonce re-marked after
	// expiry leaves its stale order entry behind, so dropping one must
	// only delete the map entry it actually owns.
	for len(s.order) > 0 && s.order[0].expires <= now {
		s.dropHeadLocked()
	}
	if exp, dup := s.seen[nonce]; dup && exp > now {
		return false
	}
	if len(s.order) >= s.capacity {
		s.dropHeadLocked()
		s.evicted++
	}
	s.seen[nonce] = expires
	s.order = append(s.order, replayEntry{nonce: nonce, expires: expires})
	return true
}

// dropHeadLocked removes the oldest order entry, deleting its map entry
// only when it still owns it (a re-marked nonce's map entry belongs to a
// newer order slot).
//
// seclint:locked caller holds s.mu
func (s *replayShard) dropHeadLocked() {
	e := s.order[0]
	s.order = s.order[1:]
	if exp, ok := s.seen[e.nonce]; ok && exp == e.expires {
		delete(s.seen, e.nonce)
	}
}

// issuedDigest names one signed token under one key: SHA-256 over the
// public-key bytes followed by the token's wire form (signed prefix, then
// signature) — the shape of wsig.KeyDirectory's verified-triple memo. The
// key is fixed-size, so the concatenation is unambiguous.
func issuedDigest(pub ed25519.PublicKey, raw []byte) [sha256.Size]byte {
	var buf [ed25519.PublicKeySize + TokenLen]byte
	copy(buf[:], pub)
	copy(buf[ed25519.PublicKeySize:], raw)
	return sha256.Sum256(buf[:])
}

// remember records that raw (nonce, expiring at expires) was produced by
// ed25519.Sign under the private half of pub.
func (c *replayCache) remember(nonce uint64, pub ed25519.PublicKey, raw []byte, expires, now int64) {
	digest := issuedDigest(pub, raw)
	s := c.shardFor(nonce)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Trim the head while it is expired or already presented: a rolling
	// client presents in issue order, so the FIFO stays as short as the
	// set of tokens actually outstanding.
	for len(s.issuedOrder) > 0 {
		head := s.issuedOrder[0]
		if _, live := s.issued[head.nonce]; live && head.expires > now {
			break
		}
		s.dropIssuedHeadLocked()
	}
	if len(s.issuedOrder) >= s.capacity {
		s.dropIssuedHeadLocked()
	}
	s.issued[nonce] = digest
	s.issuedOrder = append(s.issuedOrder, replayEntry{nonce: nonce, expires: expires})
}

// seclint:locked caller holds s.mu
func (s *replayShard) dropIssuedHeadLocked() {
	delete(s.issued, s.issuedOrder[0].nonce)
	s.issuedOrder = s.issuedOrder[1:]
}

// recognise reports whether raw is byte-for-byte a token remembered as
// signed under pub, and forgets it: ed25519.Verify(pub, prefix, sig) would
// return true, so the caller may skip it. Anything else — unknown nonce,
// another key, one altered byte — is a miss that leaves the table as it
// was.
func (c *replayCache) recognise(nonce uint64, pub ed25519.PublicKey, raw []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	s := c.shardFor(nonce)
	s.mu.Lock()
	defer s.mu.Unlock()
	digest, ok := s.issued[nonce]
	if !ok || digest != issuedDigest(pub, raw) {
		return false
	}
	delete(s.issued, nonce)
	return true
}

// stats sums live nonces, unpresented issued tokens and evictions across
// shards.
func (c *replayCache) stats() (entries, issued int, evictions uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += len(s.seen)
		issued += len(s.issued)
		evictions += s.evicted
		s.mu.Unlock()
	}
	return entries, issued, evictions
}
