package secchan

import (
	"bytes"
	"crypto/ed25519"
	"net"
	"strings"
	"testing"
)

// pair establishes a channel over net.Pipe, returning client and server
// ends.
func pair(t *testing.T) (*Channel, *Channel) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	type res struct {
		ch  *Channel
		err error
	}
	srvCh := make(chan res, 1)
	go func() {
		ch, err := Server(sConn, priv)
		srvCh <- res{ch, err}
	}()
	client, err := Client(cConn, pub)
	if err != nil {
		t.Fatal(err)
	}
	sr := <-srvCh
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	t.Cleanup(func() { client.Close(); sr.ch.Close() })
	return client, sr.ch
}

func TestRoundTripBothDirections(t *testing.T) {
	client, server := pair(t)
	done := make(chan error, 1)
	go func() {
		msg, err := server.Receive()
		if err != nil {
			done <- err
			return
		}
		if string(msg) != "ping" {
			done <- errString("server got " + string(msg))
			return
		}
		done <- server.Send([]byte("pong"))
	}()
	if err := client.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "pong" {
		t.Errorf("reply = %q", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestMultipleRecordsInOrder(t *testing.T) {
	client, server := pair(t)
	msgs := []string{"one", "two", "three", "four"}
	go func() {
		for _, m := range msgs {
			client.Send([]byte(m))
		}
	}()
	for _, want := range msgs {
		got, err := server.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestWrongServerIdentityRejected(t *testing.T) {
	_, realPriv, _ := ed25519.GenerateKey(nil)
	wrongPub, _, _ := ed25519.GenerateKey(nil)
	cConn, sConn := net.Pipe()
	go Server(sConn, realPriv)
	if _, err := Client(cConn, wrongPub); err == nil {
		t.Fatal("client accepted wrong server identity (MITM possible)")
	} else if !strings.Contains(err.Error(), "identity") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCiphertextNotPlaintext(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(nil)
	cConn, sConn := net.Pipe()
	// tap records what the client writes to the wire.
	var tap bytes.Buffer
	tapConn := &tappedConn{Conn: cConn, tap: &tap}
	go func() {
		ch, err := Server(sConn, priv)
		if err != nil {
			return
		}
		ch.Receive()
	}()
	ch, err := Client(tapConn, pub)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("attack at dawn, very secret")
	if err := ch.Send(secret); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(tap.Bytes(), secret) {
		t.Error("plaintext visible on the wire")
	}
}

type tappedConn struct {
	net.Conn
	tap *bytes.Buffer
}

func (c *tappedConn) Write(p []byte) (int, error) {
	c.tap.Write(p)
	return c.Conn.Write(p)
}

func TestReplayRejected(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(nil)
	cConn, sConn := net.Pipe()
	var wire bytes.Buffer
	tapConn := &tappedConn{Conn: cConn, tap: &wire}

	srvCh := make(chan *Channel, 1)
	go func() {
		ch, err := Server(sConn, priv)
		if err == nil {
			srvCh <- ch
		}
	}()
	client, err := Client(tapConn, pub)
	if err != nil {
		t.Fatal(err)
	}
	server := <-srvCh
	wire.Reset() // drop handshake bytes; record only the data record

	go client.Send([]byte("transfer $100"))
	if _, err := server.Receive(); err != nil {
		t.Fatal(err)
	}
	// Replay the captured record verbatim.
	go func() {
		sConnW := client // silence unused warnings; replay goes to server's conn
		_ = sConnW
		cConn.Write(wire.Bytes())
	}()
	if _, err := server.Receive(); err == nil {
		t.Fatal("replayed record accepted")
	}
}

func TestTamperedRecordRejected(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(nil)
	cConn, sConn := net.Pipe()
	srvCh := make(chan *Channel, 1)
	go func() {
		ch, err := Server(sConn, priv)
		if err == nil {
			srvCh <- ch
		}
	}()
	flip := &flippingConn{Conn: cConn}
	client, err := Client(flip, pub)
	if err != nil {
		t.Fatal(err)
	}
	server := <-srvCh
	flip.active = true
	go client.Send([]byte("hello"))
	if _, err := server.Receive(); err == nil {
		t.Fatal("tampered record accepted")
	}
}

// flippingConn flips a bit in the last byte of every write once active.
type flippingConn struct {
	net.Conn
	active bool
}

func (c *flippingConn) Write(p []byte) (int, error) {
	if c.active && len(p) > 4 {
		q := append([]byte(nil), p...)
		q[len(q)-1] ^= 0x01
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

func TestOversizedRecordRejected(t *testing.T) {
	client, _ := pair(t)
	big := make([]byte, MaxRecord+1)
	if err := client.Send(big); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestLargePayload(t *testing.T) {
	client, server := pair(t)
	payload := bytes.Repeat([]byte("x"), 1<<16)
	go client.Send(payload)
	got, err := server.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("large payload corrupted")
	}
}
