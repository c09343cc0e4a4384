package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"webdbsec/internal/authtoken"
)

// connections is the generator's fixed concurrency: two keep-alive
// connections, one goroutine each, on every workload and in every phase. The
// box has two cores and the server needs them too.
const connections = 2

// conn is one keep-alive connection and the single-use token riding on it.
type conn struct {
	client *http.Client
	base   string
	token  string
}

func newConns(base string) []*conn {
	conns := make([]*conn, connections)
	for i := range conns {
		conns[i] = &conn{base: base, client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		}}
	}
	return conns
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.client.CloseIdleConnections()
	}
}

// mint fetches the connection's first token as ana/analyst; after that every
// response carries the successor.
func (c *conn) mint() error {
	resp, err := c.client.Post(c.base+"/token", "application/x-www-form-urlencoded",
		strings.NewReader(form("ana", []string{"analyst"}, "")))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m authtoken.MintResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode != http.StatusOK || m.Token == "" {
		return fmt.Errorf("mint token: status %d, %v", resp.StatusCode, err)
	}
	c.token = m.Token
	return nil
}

// do sends one request and reads the whole reply.
func (c *conn) do(r *request) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path, strings.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	if r.path == "/" {
		req.Header.Set("Content-Type", "application/xml")
	} else {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if r.token {
		req.Header.Set(authtoken.TokenHeader, c.token)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if next := resp.Header.Get(authtoken.TokenHeader); r.token && next != "" {
		c.token = next
	}
	return resp.StatusCode, body, nil
}

// sample is one measured op. Times are offsets from the phase start.
type sample struct {
	req        *request
	due        time.Duration // paced phase only
	start, end time.Duration
	// lag is how late the generator itself sent a paced op: send time minus
	// the later of its due time and the moment its connection became free.
	// Waiting for a busy connection is the system's queueing and counts in
	// latency, not here.
	lag   time.Duration
	bytes int
	ok    bool
}

// loader sends ops over the connections and checks every reply.
type loader struct {
	conns  []*conn
	check  checker
	oracle []string
}

// send does one op and reports whether its outcome is the expected one.
func (l *loader) send(c *conn, r *request) (int, bool) {
	status, body, err := c.do(r)
	if err != nil {
		return 0, false
	}
	return len(body), l.check(r, status, body) == expected(r, l.oracle)
}

// paced is the open loop: op i is due at due[i] whatever happened to the
// ops before it. Each connection takes the next op when it becomes free,
// waits for its due time if that is still ahead, and sends.
func (l *loader) paced(ops []*request, due []time.Duration) ([]sample, time.Time) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range l.conns {
		wg.Add(1)
		go func() {
			defer guard()
			defer wg.Done()
			free := time.Duration(0)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				waitUntil(t0, due[i])
				s := sample{req: ops[i], due: due[i], start: time.Since(t0)}
				s.lag = s.start - max(s.due, free)
				s.bytes, s.ok = l.send(c, ops[i])
				s.end = time.Since(t0)
				free = s.end
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples, t0
}

// spin is how long before an op's due time its connection stops sleeping and
// polls the clock instead.
const spin = 150 * time.Microsecond

// waitUntil returns when due has passed since t0. It sleeps in nanosleep(2),
// not time.Sleep: a Go timer in an otherwise idle process fires from
// epoll_wait, whose timeout counts whole milliseconds, and an open loop that
// sends each op most of a millisecond late has measured its own timer. The
// kernel's wake-up is still some 100 µs late, so the last stretch is a poll.
func waitUntil(t0 time.Time, due time.Duration) {
	if sleep := due - time.Since(t0) - spin; sleep > 0 {
		ts := syscall.NsecToTimespec(int64(sleep))
		syscall.Nanosleep(&ts, nil) // an early return only lengthens the poll
	}
	for time.Since(t0) < due {
	}
}

// closed is the closed loop: each connection sends its next op as soon as
// the previous reply is checked, for dur, wrapping around ops if it runs out.
// With dur 0 it sends every op exactly once instead.
func (l *loader) closed(ops []*request, dur time.Duration) ([]sample, time.Time) {
	perConn := make([][]sample, len(l.conns))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range l.conns {
		wg.Add(1)
		go func() {
			defer guard()
			defer wg.Done()
			for dur == 0 || time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				if dur == 0 && i >= len(ops) {
					return
				}
				r := ops[i%len(ops)]
				s := sample{req: r, start: time.Since(t0)}
				s.bytes, s.ok = l.send(c, r)
				s.end = time.Since(t0)
				perConn[ci] = append(perConn[ci], s)
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range perConn {
		all = append(all, s...)
	}
	return all, t0
}

// refRequest is the one request the reference server is ever sent, so its
// work per request is the same on every commit, seed and workload.
var refRequest = &request{path: "/work", body: "name=person-10000"}

// service is the single-connection closed loop with the yardstick beside it:
// one goroutine sends an op to the server on the first connection, then
// refRequest to the reference server, and so on for dur. Nothing runs
// alongside, so an op's latency is its service time, and whatever slows the
// box during a segment slows both servers. It returns the ops' samples and
// the reference requests' latencies; want is the reply refRequest must get.
func (l *loader) service(ops []*request, ref *conn, want string, dur time.Duration) ([]sample, []float64, time.Time, error) {
	var samples []sample
	var refLat []float64
	c := l.conns[0]
	t0 := time.Now()
	for i := 0; time.Since(t0) < dur; i++ {
		r := ops[i%len(ops)]
		s := sample{req: r, start: time.Since(t0)}
		s.bytes, s.ok = l.send(c, r)
		s.end = time.Since(t0)
		samples = append(samples, s)
		status, body, err := ref.do(refRequest)
		if err != nil || status != http.StatusOK || string(body) != want {
			return nil, nil, t0, fmt.Errorf("reference server: status %d, %d bytes, %v", status, len(body), err)
		}
		refLat = append(refLat, float64(time.Since(t0)-s.end)/1e6)
	}
	return samples, refLat, t0, nil
}

func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}
