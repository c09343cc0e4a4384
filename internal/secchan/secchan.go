// Package secchan implements the secure transport the paper's layered
// semantic-web stack rests on (§5): "consider the lowest layer. One needs
// secure TCP/IP, secure sockets, and secure HTTP ... One needs end-to-end
// security. That is, one cannot just have secure TCP/IP built on untrusted
// communication layers."
//
// The channel is a compact TLS-like construction from stdlib crypto:
// X25519 ephemeral key agreement authenticated by the server's Ed25519
// identity signature over the handshake transcript, SHA-256-based key
// derivation into two directional AES-256-GCM keys, and a strictly
// monotone record sequence number that doubles as the GCM nonce — so
// replayed, reordered or dropped records are rejected.
package secchan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxRecord is the maximum payload size of one record.
const MaxRecord = 1 << 24

// defaultCloseLinger bounds the best-effort close-notify write.
const defaultCloseLinger = 50 * time.Millisecond

// Config bounds a channel's blocking operations so a stalled or
// adversarial peer trips a deadline instead of wedging the endpoint.
// Zero fields impose no bound (the pre-hardening behaviour).
type Config struct {
	// HandshakeTimeout bounds the whole handshake.
	HandshakeTimeout time.Duration
	// ReadTimeout bounds each Receive.
	ReadTimeout time.Duration
	// WriteTimeout bounds each Send.
	WriteTimeout time.Duration
	// CloseLinger bounds the close-notify write during Close
	// (default 50ms).
	CloseLinger time.Duration
}

// Channel is an established secure channel. Send and Close may be called
// from any goroutine: sendMu makes taking a sequence number and writing the
// record it seals one step, so no two records share a nonce and no two
// frames interleave on the wire. Receive is NOT safe for concurrent use; use
// one reader.
type Channel struct {
	conn    net.Conn
	cfg     Config
	sendKey cipher.AEAD
	recvKey cipher.AEAD
	sendMu  sync.Mutex
	sendSeq uint64 // seclint:guardedby sendMu
	recvSeq uint64
	closed  atomic.Bool
}

// Server performs the responder side of the handshake with no deadlines;
// see ServerConfig.
//
// seclint:exempt conn-level API; cancellation is the net.Conn deadline armed via Config, not a ctx
func Server(conn net.Conn, identity ed25519.PrivateKey) (*Channel, error) {
	return ServerConfig(conn, identity, Config{})
}

// ServerConfig performs the responder side of the handshake: it receives
// the client's ephemeral public key, replies with its own plus an identity
// signature over the transcript, and derives the record keys. The
// handshake is bounded by cfg.HandshakeTimeout.
//
// seclint:exempt conn-level API; cfg.HandshakeTimeout arms the net.Conn deadline in place of a ctx
func ServerConfig(conn net.Conn, identity ed25519.PrivateKey, cfg Config) (*Channel, error) {
	restore, err := handshakeDeadline(conn, cfg)
	if err != nil {
		return nil, err
	}
	ch, err := serverHandshake(conn, identity, cfg)
	if err != nil {
		return nil, err
	}
	if err := restore(); err != nil {
		return nil, fmt.Errorf("secchan: clear handshake deadline: %w", err)
	}
	return ch, nil
}

// handshakeDeadline arms the handshake deadline and returns the function
// that clears it once the handshake succeeded.
func handshakeDeadline(conn net.Conn, cfg Config) (func() error, error) {
	if cfg.HandshakeTimeout <= 0 {
		return func() error { return nil }, nil
	}
	if err := conn.SetDeadline(time.Now().Add(cfg.HandshakeTimeout)); err != nil {
		return nil, fmt.Errorf("secchan: arm handshake deadline: %w", err)
	}
	return func() error { return conn.SetDeadline(time.Time{}) }, nil
}

func serverHandshake(conn net.Conn, identity ed25519.PrivateKey, cfg Config) (*Channel, error) {
	curve := ecdh.X25519()
	priv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secchan: keygen: %w", err)
	}
	clientPub := make([]byte, 32)
	if _, err := io.ReadFull(conn, clientPub); err != nil {
		return nil, fmt.Errorf("secchan: read client key: %w", err)
	}
	remote, err := curve.NewPublicKey(clientPub)
	if err != nil {
		return nil, fmt.Errorf("secchan: client key: %w", err)
	}
	serverPub := priv.PublicKey().Bytes()
	transcript := transcriptHash(clientPub, serverPub)
	sig := ed25519.Sign(identity, transcript)
	if _, err := conn.Write(serverPub); err != nil {
		return nil, fmt.Errorf("secchan: write server key: %w", err)
	}
	if _, err := conn.Write(sig); err != nil {
		return nil, fmt.Errorf("secchan: write signature: %w", err)
	}
	secret, err := priv.ECDH(remote)
	if err != nil {
		return nil, fmt.Errorf("secchan: ecdh: %w", err)
	}
	return newChannel(conn, cfg, secret, transcript, false)
}

// Client performs the initiator side with no deadlines; see ClientConfig.
//
// seclint:exempt conn-level API; cancellation is the net.Conn deadline armed via Config, not a ctx
func Client(conn net.Conn, serverID ed25519.PublicKey) (*Channel, error) {
	return ClientConfig(conn, serverID, Config{})
}

// ClientConfig performs the initiator side, verifying the server's
// identity signature against serverID before trusting the channel. The
// handshake is bounded by cfg.HandshakeTimeout.
//
// seclint:exempt conn-level API; cfg.HandshakeTimeout arms the net.Conn deadline in place of a ctx
func ClientConfig(conn net.Conn, serverID ed25519.PublicKey, cfg Config) (*Channel, error) {
	restore, err := handshakeDeadline(conn, cfg)
	if err != nil {
		return nil, err
	}
	ch, err := clientHandshake(conn, serverID, cfg)
	if err != nil {
		return nil, err
	}
	if err := restore(); err != nil {
		return nil, fmt.Errorf("secchan: clear handshake deadline: %w", err)
	}
	return ch, nil
}

func clientHandshake(conn net.Conn, serverID ed25519.PublicKey, cfg Config) (*Channel, error) {
	curve := ecdh.X25519()
	priv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secchan: keygen: %w", err)
	}
	clientPub := priv.PublicKey().Bytes()
	if _, err := conn.Write(clientPub); err != nil {
		return nil, fmt.Errorf("secchan: write client key: %w", err)
	}
	serverPub := make([]byte, 32)
	if _, err := io.ReadFull(conn, serverPub); err != nil {
		return nil, fmt.Errorf("secchan: read server key: %w", err)
	}
	sig := make([]byte, ed25519.SignatureSize)
	if _, err := io.ReadFull(conn, sig); err != nil {
		return nil, fmt.Errorf("secchan: read signature: %w", err)
	}
	transcript := transcriptHash(clientPub, serverPub)
	if !ed25519.Verify(serverID, transcript, sig) {
		return nil, fmt.Errorf("secchan: server identity verification failed")
	}
	remote, err := curve.NewPublicKey(serverPub)
	if err != nil {
		return nil, fmt.Errorf("secchan: server key: %w", err)
	}
	secret, err := priv.ECDH(remote)
	if err != nil {
		return nil, fmt.Errorf("secchan: ecdh: %w", err)
	}
	return newChannel(conn, cfg, secret, transcript, true)
}

func transcriptHash(clientPub, serverPub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("secchan-v1"))
	h.Write(clientPub)
	h.Write(serverPub)
	return h.Sum(nil)
}

// deriveKey expands the shared secret into a directional key.
func deriveKey(secret, transcript []byte, label string) ([]byte, error) {
	h := sha256.New()
	h.Write(secret)
	h.Write(transcript)
	h.Write([]byte(label))
	return h.Sum(nil), nil
}

func newChannel(conn net.Conn, cfg Config, secret, transcript []byte, isClient bool) (*Channel, error) {
	c2s, err := deriveKey(secret, transcript, "client-to-server")
	if err != nil {
		return nil, err
	}
	s2c, err := deriveKey(secret, transcript, "server-to-client")
	if err != nil {
		return nil, err
	}
	mk := func(key []byte) (cipher.AEAD, error) {
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	}
	c2sAEAD, err := mk(c2s)
	if err != nil {
		return nil, fmt.Errorf("secchan: %w", err)
	}
	s2cAEAD, err := mk(s2c)
	if err != nil {
		return nil, fmt.Errorf("secchan: %w", err)
	}
	ch := &Channel{conn: conn, cfg: cfg}
	if isClient {
		ch.sendKey, ch.recvKey = c2sAEAD, s2cAEAD
	} else {
		ch.sendKey, ch.recvKey = s2cAEAD, c2sAEAD
	}
	return ch, nil
}

// nonce builds the 12-byte GCM nonce from the record sequence number.
func nonce(seq uint64) []byte {
	n := make([]byte, 12)
	binary.BigEndian.PutUint64(n[4:], seq)
	return n
}

// Send encrypts and writes one record, bounded by the configured write
// timeout. Empty payloads are reserved for the close-notify record.
//
// seclint:exempt record-level API; cfg.WriteTimeout arms the net.Conn write deadline in place of a ctx
func (c *Channel) Send(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("secchan: empty record reserved for close-notify")
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("secchan: record too large (%d bytes)", len(payload))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.cfg.WriteTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout)); err != nil {
			return fmt.Errorf("secchan: send: %w", err)
		}
	}
	// Checked after arming the deadline: a Send that gets past this point
	// armed it before Close armed the linger, so the linger stands.
	if c.closed.Load() {
		return fmt.Errorf("secchan: send on closed channel")
	}
	return c.sendRecordLocked(payload)
}

// sendRecordLocked seals and writes payload under the next sequence number.
//
// seclint:locked caller holds c.sendMu
func (c *Channel) sendRecordLocked(payload []byte) error {
	seq := c.sendSeq
	c.sendSeq++
	var seqBuf [8]byte
	binary.BigEndian.PutUint64(seqBuf[:], seq)
	ct := c.sendKey.Seal(nil, nonce(seq), payload, seqBuf[:])
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(ct)))
	if _, err := c.conn.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("secchan: send: %w", err)
	}
	if _, err := c.conn.Write(ct); err != nil {
		return fmt.Errorf("secchan: send: %w", err)
	}
	return nil
}

// Receive reads and decrypts one record, enforcing the sequence number: a
// replayed, reordered or injected record fails authentication. A stalled
// peer trips the configured read timeout instead of hanging the reader.
// Receive returns io.EOF on the peer's authenticated close-notify — a
// truncating attacker cannot forge a clean EOF, it can only produce an
// error.
//
// seclint:exempt record-level API; cfg.ReadTimeout arms the net.Conn read deadline in place of a ctx
// seclint:source
func (c *Channel) Receive() ([]byte, error) {
	if c.cfg.ReadTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout)); err != nil {
			return nil, fmt.Errorf("secchan: receive: %w", err)
		}
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.conn, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("secchan: receive: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxRecord+64 {
		return nil, fmt.Errorf("secchan: oversized record (%d bytes)", n)
	}
	ct := make([]byte, n)
	if _, err := io.ReadFull(c.conn, ct); err != nil {
		return nil, fmt.Errorf("secchan: receive: %w", err)
	}
	seq := c.recvSeq
	var seqBuf [8]byte
	binary.BigEndian.PutUint64(seqBuf[:], seq)
	pt, err := c.recvKey.Open(nil, nonce(seq), ct, seqBuf[:])
	if err != nil {
		return nil, fmt.Errorf("secchan: record %d: authentication failed", seq)
	}
	c.recvSeq++
	if len(pt) == 0 {
		// Authenticated close-notify: clean end of stream.
		return nil, io.EOF
	}
	return pt, nil
}

// Close gracefully closes the channel: it makes a bounded best-effort
// attempt to send the authenticated close-notify record (so the peer's
// Receive ends in io.EOF rather than an ambiguous transport error), then
// closes the underlying connection. Safe to call more than once.
//
// seclint:exempt close is already bounded by CloseLinger; a ctx cannot make it block longer
func (c *Channel) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return c.conn.Close()
	}
	linger := c.cfg.CloseLinger
	if linger <= 0 {
		linger = defaultCloseLinger
	}
	// Best effort: a wedged peer must not turn Close into a hang. The
	// deadline is armed BEFORE taking sendMu, so a Send wedged on a dead
	// peer is cut loose by the linger, and again under it, because a Send
	// that lost the race with closed may have re-armed its own in between.
	deadline := time.Now().Add(linger)
	if err := c.conn.SetWriteDeadline(deadline); err == nil {
		c.sendMu.Lock()
		if err := c.conn.SetWriteDeadline(deadline); err == nil {
			_ = c.sendRecordLocked(nil)
		}
		c.sendMu.Unlock()
	}
	return c.conn.Close()
}

// PlainChannel is the no-security baseline used by experiment E11: the
// same length-prefixed framing with no confidentiality or integrity.
type PlainChannel struct {
	conn net.Conn
}

// NewPlainChannel wraps a connection without any protection.
func NewPlainChannel(conn net.Conn) *PlainChannel { return &PlainChannel{conn: conn} }

// Send writes one frame.
//
// seclint:exempt experiment-only baseline mirroring Channel.Send's conn-level contract
func (c *PlainChannel) Send(payload []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if _, err := c.conn.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := c.conn.Write(payload)
	return err
}

// Receive reads one frame.
//
// seclint:exempt experiment-only baseline mirroring Channel.Receive's conn-level contract
// seclint:source
func (c *PlainChannel) Receive() ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.conn, lenBuf[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(c.conn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Close closes the underlying connection.
//
// seclint:exempt connection teardown does not block on the peer
func (c *PlainChannel) Close() error { return c.conn.Close() }
