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

// replayCache is the sharded bounded chain table behind single-use
// tokens: one entry per chain, keyed by its nonce. Consuming a step is
// one mutex + map update on 1/16th of the space; an entry dies with its
// chain (issued-at + TTL + skew, after which the stateless timestamp
// check rejects every step anyway, so remembering the chain buys
// nothing). Each shard is bounded: when full it evicts its oldest live
// entry FIFO — that briefly re-opens the replay window for the evicted
// chain's spent steps, so evictions are counted and surfaced in Stats
// rather than hidden (size the cache to the chain population, not the
// other way around). A rolling client adds one entry per ChainLen
// requests, not one per request.
//
// An entry also remembers chains this node signed: their seed, from
// which the next step is computed, and a digest of the one step handed
// out and not yet consumed (see issuedDigest), so that remembering,
// recognising and consuming one token all land on one shard and one
// mutex.
type replayCache struct {
	shards [replayShards]replayShard
}

type replayShard struct {
	mu       sync.Mutex
	capacity int                   // seclint:guardedby mu
	chains   map[uint64]chainEntry // seclint:guardedby mu
	order    []replayEntry         // seclint:guardedby mu
	evicted  uint64                // seclint:guardedby mu
}

// chainEntry is what a shard knows about one chain.
type chainEntry struct {
	expires int64
	// used is the highest step consumed here; it and every earlier step
	// are spent. Zero before the first consume.
	used uint8
	// own: this node signed the chain, and seed is its seed. pending:
	// issued is the digest of the step handed out and not yet consumed.
	// Losing either (eviction) or meeting another chain under the same
	// nonce only sends the next presentation to ed25519.Verify and the
	// next successor to a fresh signature.
	own, pending bool
	// seclint:secret
	seed   [sha256.Size]byte
	issued [sha256.Size]byte
}

type replayEntry struct {
	nonce   uint64
	expires int64
}

// newReplayCache bounds the cache to roughly capacity chains overall.
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
		s.chains = make(map[uint64]chainEntry)
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

// entryLocked returns the live entry for nonce, dropping entries whose
// chains can no longer verify first; this also frees the capacity they
// were holding. A missing or dead entry comes back zero with ok false.
//
// seclint:locked caller holds s.mu
func (s *replayShard) entryLocked(nonce uint64, now int64) (chainEntry, bool) {
	for len(s.order) > 0 && s.order[0].expires <= now {
		s.dropHeadLocked()
	}
	e, ok := s.chains[nonce]
	if ok && e.expires <= now {
		return chainEntry{}, false
	}
	return e, ok
}

// putLocked stores e under nonce, giving a new entry a FIFO slot and
// evicting the oldest one when the shard is full. A chain re-entered
// after its entry died leaves the stale order slot behind, so dropping
// one must only delete the map entry it actually owns.
//
// seclint:locked caller holds s.mu
func (s *replayShard) putLocked(nonce uint64, e chainEntry, existed bool) {
	if !existed {
		if len(s.order) >= s.capacity {
			s.dropHeadLocked()
			s.evicted++
		}
		s.order = append(s.order, replayEntry{nonce: nonce, expires: e.expires})
	}
	s.chains[nonce] = e
}

// seclint:locked caller holds s.mu
func (s *replayShard) dropHeadLocked() {
	e := s.order[0]
	s.order = s.order[1:]
	if cur, ok := s.chains[e.nonce]; ok && cur.expires == e.expires {
		delete(s.chains, e.nonce)
	}
}

// consume spends step of the chain nonce, live until expires. It returns
// false — replay — when that step is already spent, and otherwise the
// chain's seed when this node signed it, so the caller can hand out the
// next step without a signature.
func (c *replayCache) consume(nonce uint64, step uint8, expires, now int64) (ok bool, seed *[sha256.Size]byte) {
	s := c.shardFor(nonce)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, existed := s.entryLocked(nonce, now)
	if existed && step <= e.used {
		return false, nil
	}
	if !existed {
		e = chainEntry{expires: expires}
	}
	e.used, e.pending = step, false
	s.putLocked(nonce, e, existed)
	if e.own {
		seed = new([sha256.Size]byte)
		*seed = e.seed
	}
	return true, seed
}

// issuedDigest names one handed-out step under one key: SHA-256 over the
// public-key bytes followed by the token's wire form (anchor, signature,
// step, link) — the shape of wsig.KeyDirectory's verified-triple memo.
// The key is fixed-size, so the concatenation is unambiguous.
func issuedDigest(pub ed25519.PublicKey, raw []byte) [sha256.Size]byte {
	var buf [ed25519.PublicKeySize + TokenLen]byte
	copy(buf[:], pub)
	copy(buf[ed25519.PublicKeySize:], raw)
	return sha256.Sum256(buf[:])
}

// remember records that raw, a step of the chain nonce grown from seed,
// was handed out by this node, its anchor produced by ed25519.Sign under
// the private half of pub.
func (c *replayCache) remember(nonce uint64, seed *[sha256.Size]byte, pub ed25519.PublicKey, raw []byte, expires, now int64) {
	digest := issuedDigest(pub, raw)
	s := c.shardFor(nonce)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, existed := s.entryLocked(nonce, now)
	if !existed {
		e = chainEntry{expires: expires}
	}
	e.own, e.pending = true, true
	e.seed, e.issued = *seed, digest
	s.putLocked(nonce, e, existed)
}

// recognise reports whether raw is byte-for-byte the step remembered as
// handed out under pub and not yet consumed: ed25519.Verify(pub, anchor,
// sig) would return true and the link hashes to the tip, so the caller
// may skip both. It changes nothing; consume ends the memory.
func (c *replayCache) recognise(nonce uint64, pub ed25519.PublicKey, raw []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	s := c.shardFor(nonce)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.chains[nonce]
	return ok && e.pending && e.issued == issuedDigest(pub, raw)
}

// stats sums live chains, handed-out-but-unshown steps and evictions
// across shards.
func (c *replayCache) stats() (entries, issued int, evictions uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += len(s.chains)
		for _, e := range s.chains {
			if e.pending {
				issued++
			}
		}
		evictions += s.evicted
		s.mu.Unlock()
	}
	return entries, issued, evictions
}
