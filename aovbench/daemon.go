package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one aovlisd process under test.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	dir   string
	setup time.Duration // launch → first /healthz 200
	log   *os.File
	// exited delivers cmd.Wait's result; nil once stop has consumed it.
	exited chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches bin with args on a free port, in a fresh state
// directory under dir, and waits for its first healthy /healthz.
// AOVLIS_FASTMATH and AOVLIS_NOSIMD are stripped from its environment.
func startDaemon(bin, dir string, args []string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	argv := append([]string{"-addr", addr}, args...)
	logf, err := os.Create(filepath.Join(dir, "aovlisd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, argv...)
	cmd.Stdout, cmd.Stderr = logf, logf
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "AOVLIS_FASTMATH=") && !strings.HasPrefix(kv, "AOVLIS_NOSIMD=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	// The daemon must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, dir: dir, log: logf}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(t0)
				break
			}
		}
		select {
		case err := <-exited:
			logf.Close()
			return nil, fmt.Errorf("aovlisd exited before serving (%v); log in %s", err, logf.Name())
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(t0) > 120*time.Second {
			d.cmd.Process.Kill()
			<-exited
			logf.Close()
			return nil, fmt.Errorf("aovlisd not healthy after 120s")
		}
	}
	d.exited = exited
	return d, nil
}

// stop shuts the daemon down gracefully (SIGINT), killing it if it has not
// exited within 20s, and waits for it either way.
func (d *daemon) stop() error {
	if d == nil || d.exited == nil {
		return nil
	}
	defer d.log.Close()
	exited := d.exited
	d.exited = nil
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("aovlisd exit: %v; log in %s", err, d.log.Name())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("aovlisd ignored SIGINT for 20s and was killed")
	}
}

// cpuTicks returns the daemon's utime+stime in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return u + s, nil
}

// peakRSS returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
