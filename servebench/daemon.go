package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one ftcserve child process with its three listeners.
type daemon struct {
	cmd       *exec.Cmd
	httpAddr  string
	binAddr   string
	pprofAddr string
	started   time.Time
	exited    chan struct{}
	waitErr   error
	hc        *http.Client
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs ftcserve with args plus its listener flags, logging to
// logPath. The child is killed if the benchmark dies first.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{}), hc: &http.Client{Timeout: 30 * time.Second}}
	for _, a := range []*string{&d.httpAddr, &d.binAddr, &d.pprofAddr} {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		*a = addr
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", d.httpAddr, "-listen-bin", d.binAddr, "-pprof", d.pprofAddr}, args...)
	d.cmd = exec.Command(bin, full...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ftcserve: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("ftcserve exited during start-up: %v", d.waitErr)
		default:
		}
		resp, err := d.hc.Get("http://" + d.httpAddr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("ftcserve did not become healthy in time")
}

// stop sends SIGTERM and waits for the process to exit, killing it if the
// graceful drain takes too long.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("ftcserve ignored SIGTERM; killed")
	}
	d.hc.CloseIdleConnections()
	return nil
}

func (d *daemon) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := d.hc.Get("http://" + d.httpAddr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// heapAlloc forces a GC in the daemon and reads its live heap in bytes
// from the pprof side listener.
func (d *daemon) heapAlloc() (uint64, error) {
	resp, err := d.hc.Get("http://" + d.pprofAddr + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no HeapAlloc line")
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
const clockTicks = 100

// cpuTime returns the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it are
	// split from the closing parenthesis. utime and stime are fields 14, 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
