package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"webdbsec/internal/audit"
	"webdbsec/internal/authtoken"
	"webdbsec/internal/core"
	"webdbsec/internal/credential"
	"webdbsec/internal/debugz"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/reldb"
	"webdbsec/internal/replication"
	"webdbsec/internal/wal"
)

// config is everything newServer needs beyond the listen address.
type config struct {
	people   int
	tokenTTL time.Duration
	// dbWAL and auditWAL are the durable logs; both nil serves from memory.
	dbWAL, auditWAL *wal.WAL
	// cluster, when set, is this node's replication identity (NodeID, Addr
	// or Listener, Peers, Identity, PeerKeys, MetaStore); newServer wires
	// the log, the applier, the role hooks and mint-key shipping into it.
	// Nil is a single node.
	cluster *replication.Config
}

// server is the one serving path. A single node is a cluster of one: with
// node == nil it leads from start to shutdown and a commit's quorum is its
// own log. In a replication group the elected leader serves the full
// read-write pipeline and holds every write ack until a quorum has the
// commit; followers replay the shipped log and serve reads through the same
// access-control gate, refusing writes with a redirect hint. The pipeline is
// an atomically-swapped SecureWebDB rebuilt on every role change, so request
// handlers always see a coherent (database, policy) pair.
type server struct {
	nodeID   string
	node     *replication.Node // nil: single node
	dbWAL    *wal.WAL          // nil: in-memory
	auditWAL *wal.WAL
	people   int
	auditLog *audit.Log

	// Token-auth state (nil when -tokenttl 0): ring signs while leading and
	// backs the mint-capable leader gate. In a group, keyset verifies what
	// the replication stream shipped and backs the verify-only follower
	// gate (no replay cache: it cannot sign successors, so it must not
	// consume nonces either); the gate is selected per request by role.
	ring         *keymgmt.MintKeyring
	creds        *credential.Verifier // wallet signatures; trusts no issuer here
	keyset       *keymgmt.PublicKeySet
	leaderAuth   *authtoken.Service
	followerAuth *authtoken.Service

	follower atomic.Pointer[reldb.Follower]
	serving  atomic.Pointer[core.SecureWebDB]
	leading  atomic.Bool
}

// newServer recovers the node's state and starts serving it: a single node
// opens its database and leads at once; a group member opens as a follower
// over its local log and lets the election decide who promotes.
func newServer(c config) (*server, error) {
	s := &server{people: c.people, dbWAL: c.dbWAL, auditWAL: c.auditWAL, auditLog: audit.NewLog()}
	var err error
	if c.auditWAL != nil {
		// A broken audit chain is a refusal to start, not a warning: the
		// accountability trail is the point.
		if s.auditLog, err = audit.OpenLog(c.auditWAL); err != nil {
			return nil, fmt.Errorf("recover audit log: %w", err)
		}
	}
	// Token fast path: POST /token runs the full evaluation once and hands
	// back a stateless Ed25519 token; the serving endpoints then verify it
	// with one signature check instead of re-qualifying every request.
	if c.tokenTTL > 0 {
		if s.ring, err = keymgmt.NewMintKeyring(2); err != nil {
			return nil, fmt.Errorf("token auth: %w", err)
		}
		s.creds = credential.NewVerifier()
		if s.leaderAuth, err = newAuthService(s.ring, s.creds, c.tokenTTL, s.serving.Load); err != nil {
			return nil, fmt.Errorf("token auth: %w", err)
		}
	}

	if c.cluster == nil {
		db := reldb.NewDatabase()
		if c.dbWAL != nil {
			if db, err = reldb.OpenDatabase(c.dbWAL); err != nil {
				return nil, fmt.Errorf("recover database: %w", err)
			}
		}
		return s, s.lead(db)
	}

	follower, err := s.follow()
	if err != nil {
		return nil, err
	}
	rc := *c.cluster
	s.nodeID = rc.NodeID
	rc.WAL = c.dbWAL
	rc.Applier, rc.AppliedLSN = follower, follower.AppliedLSN()
	rc.OnLeader, rc.OnDemote = s.onLeader, s.onDemote
	if s.ring != nil {
		// Mint keys ship over the replication stream, so a token minted by
		// any leadership verifies on any replica.
		s.keyset = keymgmt.NewPublicKeySet()
		s.followerAuth = &authtoken.Service{Gate: &authtoken.Gate{
			Verifier: authtoken.NewVerifier(s.keyset, c.tokenTTL, 0, -1),
		}}
		rc.ExportAuthKeys, rc.InstallAuthKeys = s.ring.ExportPublic, s.keyset.Install
	}
	if s.node, err = replication.NewNode(rc); err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	if err := s.node.Start(); err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	return s, nil
}

// lead makes db the writable database this node serves as leader; a database
// without the demo table (a brand-new node or group) also gets the demo
// rows, which replicate to everyone through the WAL.
func (s *server) lead(db *reldb.Database) error {
	_, hasDemo := db.Table("patients")
	if err := s.servePipeline(db, !hasDemo); err != nil {
		return err
	}
	// Seed the local public key set with this node's own export before
	// taking traffic: tokens this leadership mints must verify here even
	// after a later demotion, and the replication stream only ships keys
	// peer-to-peer, never self-to-self.
	if s.keyset != nil {
		data, _ := s.ring.ExportPublic()
		if err := s.keyset.Install(data); err != nil {
			log.Printf("securedb: install own mint keys: %v", err)
		}
	}
	s.leading.Store(true)
	return nil
}

// onLeader is the election's promote hook: the follower becomes the writable
// database.
func (s *server) onLeader() {
	f := s.follower.Load()
	if f == nil {
		log.Print("securedb: promote: no follower state")
		return
	}
	db, err := f.Promote()
	if err != nil {
		log.Printf("securedb: promote: %v", err)
		return
	}
	s.follower.Store(nil)
	if err := s.lead(db); err != nil {
		log.Printf("securedb: promote: %v", err)
		return
	}
	log.Printf("securedb: %s promoted to leader", s.nodeID)
}

// onDemote drops leadership and rebuilds the replica state machine from the
// local WAL, exactly like a restart.
func (s *server) onDemote() {
	s.leading.Store(false)
	f, err := s.follow()
	if err != nil {
		log.Printf("securedb: demote: %v", err)
		return
	}
	s.node.SetApplier(f, f.AppliedLSN())
	log.Printf("securedb: %s demoted to follower", s.nodeID)
}

// follow opens the replica state machine over the local WAL and serves its
// materialization — how a group member starts, and how a deposed leader
// carries on.
func (s *server) follow() (*reldb.Follower, error) {
	f, err := reldb.OpenFollower(s.dbWAL)
	if err != nil {
		s.follower.Store(nil)
		s.serving.Store(nil)
		return nil, fmt.Errorf("open follower: %w", err)
	}
	s.follower.Store(f)
	return f, s.servePipeline(f.DB(), false)
}

// servePipeline points the serving pipeline at db: a leader's writable
// database, or a follower's replayed materialization — reads on a replica
// traverse the same grant catalog, row/column policies, privacy constraints
// and inference control as on the leader (the provably-equal-views
// requirement). loadDemo also creates and fills the demo table, which only
// a leader may do: a replica's tables come through the log.
func (s *server) servePipeline(db *reldb.Database, loadDemo bool) error {
	w := core.NewSecureWebDB(core.Config{DB: reldb.NewSecureDB(db, nil), Audit: s.auditLog})
	if err := setupDemo(w, s.people, loadDemo); err != nil {
		return fmt.Errorf("demo setup: %w", err)
	}
	s.serving.Store(w)
	return nil
}

// isLeader reports whether this node may take writes and mint tokens now.
func (s *server) isLeader() bool {
	return s.leading.Load() && (s.node == nil || s.node.Role() == replication.LeaderRole)
}

// activeAuth picks the gate for the node's current role: mint-capable while
// leading, verify-only otherwise. Nil when token auth is off.
func (s *server) activeAuth() *authtoken.Service {
	if s.leaderAuth == nil || s.leading.Load() {
		return s.leaderAuth
	}
	return s.followerAuth
}

// committed holds a write's success ack until the cluster durability verdict
// for its commit record is in: durable on a quorum, so no failover can roll
// the response back. A single node's quorum is its own log, whose verdict
// Txn.Commit already delivered.
func (s *server) committed(ctx context.Context, lsn int64) error {
	if s.node == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return s.node.WaitCommitted(ctx, uint64(lsn))
}

// notLeader writes the standard redirect hint for writes on a replica.
func (s *server) notLeader(rw http.ResponseWriter) {
	leader := s.node.LeaderID()
	if leader == "" {
		leader = "unknown (election in progress)"
	}
	http.Error(rw, fmt.Sprintf("not the leader; writes go to %s", leader), http.StatusServiceUnavailable)
}

// serve adapts a pipeline handler to the mux: each request runs against the
// pipeline and gate of the node's role at that moment. leaderOnly endpoints
// (writes, minting) are refused on a replica.
func (s *server) serve(leaderOnly bool, h pipelineHandler) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		if leaderOnly && !s.isLeader() {
			s.notLeader(rw)
			return
		}
		w := s.serving.Load()
		if w == nil {
			http.Error(rw, "warming up", http.StatusServiceUnavailable)
			return
		}
		h(rw, req, w, s.activeAuth())
	}
}

// mux builds the HTTP surface — the same endpoints whatever the deployment;
// a replication group adds /cluster.
func (s *server) mux(debug bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.serve(false, serveQuery))
	mux.HandleFunc("/exec", s.serve(true, func(rw http.ResponseWriter, r *http.Request, w *core.SecureWebDB, a *authtoken.Service) {
		serveExec(rw, r, w, a, s.committed)
	}))
	mux.HandleFunc("/agg", s.serve(false, serveQuery))
	mux.HandleFunc("/explain", s.serve(false, serveExplain))
	mux.HandleFunc("/audit", func(rw http.ResponseWriter, r *http.Request) {
		for _, rec := range s.auditLog.Records() {
			fmt.Fprintf(rw, "%4d %-10s %-8s %-60s %s\n", rec.Seq, rec.Actor, rec.Action, rec.Object, rec.Outcome)
		}
	})
	if s.leaderAuth != nil {
		// Minting is leader-only: the mint keyring's private half never
		// leaves the node that signs with it, and followers hold only the
		// replicated public set.
		mint := s.leaderAuth.MintHandler()
		mux.HandleFunc("/token", s.serve(true, func(rw http.ResponseWriter, r *http.Request, _ *core.SecureWebDB, _ *authtoken.Service) {
			mint(rw, r)
		}))
	}
	if s.node != nil {
		mux.HandleFunc("/cluster", func(rw http.ResponseWriter, r *http.Request) {
			st := s.node.Snapshot()
			fmt.Fprintf(rw, "node %s role=%s epoch=%d leader=%s commit=%d durable=%d applied=%d\n",
				st.NodeID, st.Role, st.Epoch, st.LeaderID, st.CommitLSN, st.DurableLSN, st.AppliedLSN)
			for id, f := range st.Followers {
				fmt.Fprintf(rw, "follower %s acked=%d queue=%d lastheard=%s\n", id, f.AckedLSN, f.QueueLen, f.LastHeard)
			}
		})
	}
	if debug {
		debugz.Mount(mux)
		for name, fn := range s.vars() {
			debugz.Publish(name, fn)
		}
		log.Print("securedb: debug endpoints enabled at /debug/pprof and /debug/vars")
	}
	return mux
}

// vars is the node's /debug/vars vocabulary: the same keys and shapes
// whatever the deployment; a replication group adds securedb.cluster.
func (s *server) vars() map[string]func() any {
	vars := map[string]func() any{
		"securedb.parse_cache": func() any {
			if w := s.serving.Load(); w != nil {
				return w.DB().ParseCacheStats()
			}
			return nil
		},
	}
	if s.leaderAuth != nil {
		vars["securedb.authtoken"] = func() any { return s.leaderAuth.Gate.Stats() }
	}
	if s.dbWAL != nil {
		vars["securedb.wal.db"] = func() any { return s.dbWAL.Stats() }
		vars["securedb.wal.audit"] = func() any { return s.auditWAL.Stats() }
	}
	if s.node != nil {
		vars["securedb.cluster"] = func() any {
			st := map[string]any{"leading": s.leading.Load(), "replication": s.node.Snapshot()}
			if s.followerAuth != nil {
				st["replica_authtoken"] = s.followerAuth.Gate.Stats()
			}
			return st
		}
	}
	return vars
}

// checkpoint takes a fuzzy checkpoint of the database this node leads: it
// pins a committed version and streams it out while transactions keep
// committing, so it never blocks or fails mid-traffic — it only bounds
// restart replay.
func (s *server) checkpoint() error {
	w := s.serving.Load()
	if w == nil || !s.leading.Load() {
		return fmt.Errorf("not leading")
	}
	return w.DB().DB().Checkpoint()
}

// close stops replication and flushes durable state. A single node
// checkpoints so the next start replays nothing (fuzzy, so it succeeds even
// with a straggling transaction in flight — which has logged nothing until
// it commits); a group member's log is history its peers catch
// up from, so truncating it is not a shutdown side effect. Failures are
// logged, not fatal — the WAL already holds everything a redo needs.
func (s *server) close() {
	if s.node != nil {
		s.node.Stop()
	}
	if s.dbWAL == nil {
		return
	}
	if s.node == nil {
		if err := s.checkpoint(); err != nil {
			log.Printf("securedb: checkpoint: %v", err)
		}
	}
	if err := s.dbWAL.Close(); err != nil {
		log.Printf("securedb: close db wal: %v", err)
	}
	if err := s.auditWAL.Close(); err != nil {
		log.Printf("securedb: close audit wal: %v", err)
	}
}
