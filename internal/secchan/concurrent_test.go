package secchan

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSendAndCloseShareNoNonce: senders race each other and a
// Close. The receiver authenticates every record under the next sequence
// number, so a clean run of records ending in io.EOF means no nonce was
// used twice, no frame interleaved with another, and the close-notify went
// out last. Each sender's own records must also arrive in its send order.
func TestConcurrentSendAndCloseShareNoNonce(t *testing.T) {
	// A long linger: the receiver is live, so the close-notify only waits
	// for the sends in front of it. The read timeout turns a desynchronised
	// stream (interleaved frames) into a failure instead of a hang.
	client, server := pairConfig(t, Config{CloseLinger: 10 * time.Second}, Config{ReadTimeout: 10 * time.Second})
	const senders, closeAfter = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var rec [8]byte
			for i := uint32(0); ; i++ {
				binary.BigEndian.PutUint32(rec[:4], uint32(g))
				binary.BigEndian.PutUint32(rec[4:], i)
				if client.Send(rec[:]) != nil {
					return // closed under us
				}
			}
		}(g)
	}
	closeNow := make(chan struct{})
	received := make(chan error, 1)
	go func() {
		next := make([]uint32, senders)
		for n := 1; ; n++ {
			rec, err := server.Receive()
			if err != nil {
				received <- err
				return
			}
			g, i := binary.BigEndian.Uint32(rec[:4]), binary.BigEndian.Uint32(rec[4:])
			if i != next[g] {
				t.Errorf("sender %d: record %d arrived where %d was due", g, i, next[g])
			}
			next[g] = i + 1
			if n == closeAfter {
				close(closeNow)
			}
		}
	}()
	select {
	case <-closeNow:
	case err := <-received:
		t.Fatalf("stream ended in %v after fewer than %d records", err, closeAfter)
	}
	if err := client.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	if err := <-received; !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended in %v, want the close-notify's io.EOF", err)
	}
}

// enteredConn signals when a Write has been entered.
type enteredConn struct {
	net.Conn
	entered chan struct{}
}

func (c *enteredConn) Write(p []byte) (int, error) {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	return c.Conn.Write(p)
}

// TestCloseCutsLooseWedgedSend: a Send with no write timeout is wedged
// inside conn.Write, holding the send mutex, on a peer that never reads.
// Close must not queue behind it: the linger deadline it arms first fails
// the wedged write, and Close returns within the linger.
func TestCloseCutsLooseWedgedSend(t *testing.T) {
	const linger = 50 * time.Millisecond
	client, _ := pairConfig(t, Config{CloseLinger: linger}, Config{})
	entered := make(chan struct{}, 1)
	client.conn = &enteredConn{Conn: client.conn, entered: entered}
	sent := make(chan error, 1)
	go func() { sent <- client.Send([]byte("into the void")) }()
	<-entered
	start := time.Now()
	client.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v behind a wedged Send, want ~%v", elapsed, linger)
	}
	if err := <-sent; err == nil {
		t.Fatal("Send to a peer that never reads succeeded")
	}
}
