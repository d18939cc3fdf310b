package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// env owns one run's scratch directory and child processes. cleanup kills
// every child and removes the directory; it is safe to call from several
// paths (normal exit, signal, deadline) and runs once.
type env struct {
	cfg  config
	tmp  string
	stop chan struct{}

	mu   sync.Mutex
	kids map[*kid]struct{}
	once sync.Once
}

func newEnv(cfg config) (*env, error) {
	root := filepath.Join(cfg.work, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	removeStale(root)
	tmp, err := os.MkdirTemp(root, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return nil, err
	}
	return &env{cfg: cfg, tmp: tmp, stop: make(chan struct{}), kids: map[*kid]struct{}{}}, nil
}

// removeStale deletes run directories left by runs that were killed
// before their cleanup could run (their pid no longer exists).
func removeStale(root string) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, ent := range ents {
		parts := strings.SplitN(ent.Name(), "-", 3)
		if len(parts) != 3 || parts[0] != "run" {
			continue
		}
		pid, err := strconv.Atoi(parts[1])
		if err != nil || pid == os.Getpid() {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); os.IsNotExist(err) {
			os.RemoveAll(filepath.Join(root, ent.Name()))
		}
	}
}

func (e *env) cleanup() {
	e.once.Do(func() {
		close(e.stop)
		e.mu.Lock()
		kids := make([]*kid, 0, len(e.kids))
		for k := range e.kids {
			kids = append(kids, k)
		}
		e.mu.Unlock()
		for _, k := range kids {
			e.kill(k)
		}
		os.RemoveAll(e.tmp)
	})
}

// kid is one child server process.
type kid struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on
	done chan struct{}
}

// addrWatcher is a child's stdout: it picks the "listening on ADDR" line
// out of the stream and discards the rest.
type addrWatcher struct {
	mu   sync.Mutex
	line []byte
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	sc := bufio.NewScanner(bytes.NewReader(w.line))
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			w.addr <- a
			w.sent = true
			w.line = nil
			return len(p), nil
		}
	}
	if i := bytes.LastIndexByte(w.line, '\n'); i >= 0 {
		w.line = append(w.line[:0], w.line[i+1:]...)
	}
	return len(p), nil
}

// start launches a server binary from cfg.bin listening on a free loopback
// port and returns once it has printed its address.
func (e *env) start(name string, args ...string) (*kid, error) {
	args = append(args, "-addr", "127.0.0.1:0")
	w := &addrWatcher{addr: make(chan string, 1)}
	k, err := e.spawn(filepath.Join(e.cfg.bin, name), w, args...)
	if err != nil {
		return nil, err
	}
	select {
	case k.addr = <-w.addr:
		return k, nil
	case <-k.done:
		e.kill(k)
		return nil, fmt.Errorf("%s %s exited before listening", name, strings.Join(args, " "))
	case <-time.After(60 * time.Second):
		e.kill(k)
		return nil, fmt.Errorf("%s did not start listening within 60s", name)
	}
}

// spawn starts a child process whose stdout goes to out. The child is
// killed with the benchmark (Pdeathsig) even if cleanup never runs.
func (e *env) spawn(path string, out io.Writer, args ...string) (*kid, error) {
	cmd := exec.Command(path, args...)
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.stop:
		return nil, fmt.Errorf("start %s: run is stopping", path)
	default:
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	k := &kid{cmd: cmd, done: make(chan struct{})}
	e.kids[k] = struct{}{}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no information
		close(k.done)
	}()
	return k, nil
}

// startIdlePoller starts this binary again in -spin mode: one thread per
// CPU that spins at SCHED_IDLE priority, so it runs only when nothing else
// wants the CPU. On a virtual machine a halted vCPU wakes through the
// hypervisor, which adds its (host-load-dependent) delay to every request
// that crosses processes; keeping the vCPUs from halting removes that
// delay, the benchmark's main source of run-to-run spread on the HTTP
// workloads. The poller yields at once to any runnable task, so it takes
// no measurable CPU from the program.
func (e *env) startIdlePoller() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	_, err = e.spawn(self, io.Discard, "-spin")
	return err
}

// spin is the idle poller's body: runtime.NumCPU threads, each lowered to
// SCHED_IDLE, spinning until the process is killed.
func spin() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			const schedIdle = 5
			_, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(syscall.Gettid()), schedIdle, uintptr(unsafe.Pointer(&param)))
			if errno != 0 {
				fmt.Fprintf(os.Stderr, "perfbench: idle poller: sched_setscheduler: %v\n", errno)
				os.Exit(1)
			}
			for {
			}
		}()
	}
	select {}
}

// kill stops a child with SIGKILL and waits until it has exited. SIGKILL,
// not SIGTERM: nsgserve's graceful shutdown would re-save the bundle.
func (e *env) kill(k *kid) {
	_ = k.cmd.Process.Kill() // fails only if the process already exited
	<-k.done
	e.mu.Lock()
	delete(e.kids, k)
	e.mu.Unlock()
}

// peakRSSMiB is the process's VmHWM, read before it is killed.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// waitReady polls GET /readyz until it answers 200.
func (e *env) waitReady(c *client, k *kid) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for {
		status, _, err := c.get(ctx, "http://"+k.addr+"/readyz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-k.done:
			return fmt.Errorf("server %s exited before ready", k.addr)
		case <-ctx.Done():
			return fmt.Errorf("server %s not ready within 60s", k.addr)
		case <-e.stop:
			return fmt.Errorf("run is stopping")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// client is one keep-alive HTTP connection's worth of client: requests
// are issued one at a time and every response body is drained into a
// reused buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends a pre-encoded JSON body and returns the status and the
// response body, which stays valid until the client's next call.
func (c *client) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *client) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}
