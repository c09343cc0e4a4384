package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running securedb or uddiserver child process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	log     *os.File
	// exited is closed once the process has ended and been waited for.
	exited chan struct{}
	// setup is process start to first good reply: demo load included,
	// go build not.
	setup time.Duration
}

// live tracks every child still running and the scratch directory their data
// lives in, so any exit path can clean up: a leftover securedb, uddiserver or
// data directory after the benchmark is a bug.
var live struct {
	sync.Mutex
	servers map[*server]bool
	scratch string
}

// cleanup kills every live child, waits for each to end, and removes the
// scratch directory.
func cleanup() {
	live.Lock()
	servers := make([]*server, 0, len(live.servers))
	for s := range live.servers {
		servers = append(servers, s)
	}
	scratch := live.scratch
	live.Unlock()
	for _, s := range servers {
		s.kill()
	}
	if scratch != "" {
		os.RemoveAll(scratch)
	}
}

// guard is deferred first in every goroutine the benchmark starts: a panic
// there would otherwise end the process with children still running.
func guard() {
	if p := recover(); p != nil {
		cleanup()
		fmt.Fprintf(os.Stderr, "bench: panic: %v\n%s", p, debug.Stack())
		os.Exit(2)
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer runs bin with args plus a fresh -addr, sends its output to
// logPath (appending, so a restart keeps the first life's log), and polls
// readyPath until it answers 200.
func startServer(bin string, args []string, logPath, readyPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, log: logFile, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	if live.servers == nil {
		live.servers = map[*server]bool{}
	}
	live.servers[s] = true
	live.Unlock()

	go func() {
		defer guard()
		cmd.Wait() // a killed child's exit status is no news
		close(s.exited)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + readyPath)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				client.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.kill()
			return nil, fmt.Errorf("%s exited before serving; log tail:\n%s", filepath.Base(bin), tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("%s not ready after 60s; log tail:\n%s", filepath.Base(bin), tail(logPath))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL — no shutdown checkpoint, which is what the restart
// check wants — and waits until the process has ended. Safe to call twice.
func (s *server) kill() {
	live.Lock()
	running := live.servers[s]
	delete(live.servers, s)
	live.Unlock()
	if !running {
		return
	}
	s.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-s.exited
	s.log.Close()
}

// rssMiB reads the child's resident set size from /proc.
func (s *server) rssMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuTime reads the CPU time the child's threads have spent running, user
// and kernel mode together, from the scheduler's nanosecond accounting.
// (/proc/<pid>/stat counts in 10 ms ticks and splits user from kernel time by
// sampling, which is noise of its own.)
func (s *server) cpuTime() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat: is the kernel built without scheduler statistics? %v", s.cmd.Process.Pid, err)
	}
	var total time.Duration
	for _, task := range tasks {
		// seclint:taint-exempt the path is globbed from the child's pid alone; the analysis taints a whole struct that also holds a reply
		data, err := os.ReadFile(task)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, fmt.Errorf("unexpected %s: %q", task, data)
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unexpected %s: %q", task, data)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// debugVars fetches /debug/vars of a server started with -debug.
func (s *server) debugVars() (map[string]json.RawMessage, error) {
	resp, err := http.Get(s.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	vars := map[string]json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars, nil
}

// dirBytes sums the sizes of the regular files under dir; a missing dir is 0.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if os.IsNotExist(err) {
		return 0, nil
	}
	return total, err
}

// tail returns the last lines of a log file for an error message.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}
