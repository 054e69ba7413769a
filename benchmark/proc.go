package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
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

// Process hygiene: every stormd the benchmark spawns listens on a loopback
// port taken from :0, is registered here, and is killed and waited for on
// normal exit, on SIGINT/SIGTERM and on panic (see main).

// child is one spawned stormd.
type child struct {
	cmd  *exec.Cmd
	addr string // HTTP address
	tail *tailBuffer
	done chan struct{} // closed once the process has been waited for
}

var (
	childMu  sync.Mutex
	children = map[*child]struct{}{}
)

// tailBuffer keeps the last few KiB a child wrote to stderr, for the
// start-up failure report.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4096

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePorts reserves n distinct loopback ports by listening on :0 and
// closing; the listeners are held until all n are known so none repeats.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for len(ports) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		held = append(held, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// cpuMask is a CPU affinity mask as sched_setaffinity takes it (1024 CPUs).
type cpuMask [16]uint64

func schedAffinity(trap uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// startOn starts cmd with its CPU affinity set to the one given CPU (any
// CPU when cpu < 0 or the box has a single one). A child inherits the
// affinity of the thread that forks it, so the calling goroutine pins its own
// thread for the duration of the fork and then restores it.
func startOn(cmd *exec.Cmd, cpu int) error {
	if cpu < 0 || runtime.NumCPU() < 2 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old, one cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &old); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu %= runtime.NumCPU()
	one[cpu/64] = 1 << (cpu % 64)
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return fmt.Errorf("sched_setaffinity to CPU %d: %w", cpu, err)
	}
	err := cmd.Start()
	if rerr := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &old); rerr != nil && err == nil {
		err = fmt.Errorf("restoring CPU affinity: %w", rerr)
	}
	return err
}

// spawn starts the stormd binary with args on the given CPU (see startOn)
// and registers it for clean-up.
func spawn(cpu int, bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), tail: &tailBuffer{}, done: make(chan struct{})}
	c.cmd.Stderr = c.tail
	c.cmd.Stdout = io.Discard
	// Its own process group: a terminal's Ctrl-C reaches the benchmark,
	// which then stops the children itself, in order.
	// Pdeathsig: should the benchmark die without running its clean-up (a
	// panic on another goroutine, SIGKILL), the kernel kills the child.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := startOn(c.cmd, cpu); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	childMu.Lock()
	children[c] = struct{}{}
	childMu.Unlock()
	go func() {
		_ = c.cmd.Wait() // exit status of a killed child carries nothing
		close(c.done)
	}()
	return c, nil
}

// stop kills the child and waits until it has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
	childMu.Lock()
	delete(children, c)
	childMu.Unlock()
}

// stopAll stops every registered child; safe to call more than once.
func stopAll() {
	childMu.Lock()
	all := make([]*child, 0, len(children))
	for c := range children {
		all = append(all, c)
	}
	childMu.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// waitHealthy polls GET /healthz until it answers 200, the child exits, or
// the start-up timeout passes; failures carry the child's stderr tail.
func (c *child) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, startupTimeout)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-c.done:
			return fmt.Errorf("stormd %s exited during start-up; stderr tail:\n%s", c.addr, c.tail)
		case <-ctx.Done():
			return fmt.Errorf("stormd %s not healthy after %s; stderr tail:\n%s", c.addr, startupTimeout, c.tail)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+c.addr+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the child's VmHWM (peak resident set) from /proc.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("%w (stormd %s gone; stderr tail:\n%s)", err, c.addr, c.tail)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
			fields := strings.Fields(string(rest))
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", c.cmd.Process.Pid)
}

// topology is the set of processes of one workload instance; front is the
// address queries and ingest go to.
type topology struct {
	procs []*child
	front string
}

// startTopology spawns the workload's processes and returns once the front
// answers /healthz: a single stormd on both CPUs, or two -role=shard hosts
// followed by a -replicas 2 coordinator. The cluster's processes are pinned:
// the coordinator to CPU 0, the shard hosts to CPU 1. Left to the scheduler,
// the per-record insert RPC ping-pong runs 2.5x faster or slower from one run
// to the next depending on whether it happens to put both ends of a round
// trip on one CPU; pinned, every round trip crosses CPUs, as it would between
// machines, and the cluster's ingest rate repeats within a few percent.
func startTopology(ctx context.Context, bin string, w workloadSpec) (*topology, error) {
	common := []string{
		"-osm", strconv.Itoa(w.OSM), "-tweets", "0", "-stations", "0",
		"-seed", strconv.Itoa(datasetSeed), "-no-pprof",
	}
	t := &topology{}
	start := func(cpu int, args ...string) (*child, error) {
		c, err := spawn(cpu, bin, append(args, common...)...)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, c)
		return c, nil
	}
	fail := func(err error) (*topology, error) {
		t.stop()
		return nil, err
	}
	if !w.Cluster {
		ports, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		t.front = "127.0.0.1:" + strconv.Itoa(ports[0])
		c, err := start(-1, "-addr", t.front, "-pool", strconv.Itoa(w.Pool))
		if err != nil {
			return fail(err)
		}
		c.addr = t.front
		if err := c.waitHealthy(ctx); err != nil {
			return fail(err)
		}
		return t, nil
	}
	ports, err := freePorts(5)
	if err != nil {
		return nil, err
	}
	var wires []string
	for i := 0; i < 2; i++ {
		httpAddr := "127.0.0.1:" + strconv.Itoa(ports[2*i])
		wireAddr := "127.0.0.1:" + strconv.Itoa(ports[2*i+1])
		c, err := start(1, "-role=shard", "-addr", httpAddr, "-wire-addr", wireAddr)
		if err != nil {
			return fail(err)
		}
		c.addr = httpAddr
		wires = append(wires, wireAddr)
	}
	for _, c := range t.procs {
		if err := c.waitHealthy(ctx); err != nil {
			return fail(err)
		}
	}
	t.front = "127.0.0.1:" + strconv.Itoa(ports[4])
	c, err := start(0, "-role=coordinator", "-addr", t.front, "-shards", strings.Join(wires, ","),
		"-replicas", "2", "-pool", strconv.Itoa(w.Pool))
	if err != nil {
		return fail(err)
	}
	c.addr = t.front
	if err := c.waitHealthy(ctx); err != nil {
		return fail(err)
	}
	return t, nil
}

func (t *topology) stop() {
	for _, c := range t.procs {
		c.stop()
	}
}

// peakRSSMB sums VmHWM over the topology's processes.
func (t *topology) peakRSSMB() (float64, error) {
	total := 0.0
	for _, c := range t.procs {
		mb, err := c.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// buildStormd compiles cmd/stormd from the checkout at root into
// root/.bench_build and returns the binary's path.
func buildStormd(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "stormd")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/stormd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/stormd in %s: %w\n%s", root, err, b)
	}
	return out, nil
}
