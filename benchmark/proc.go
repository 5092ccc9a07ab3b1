package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// daemonFlag is argv[1] of the re-exec'd child. main and TestMain both
// check it before anything else, so the test binary can be its own
// daemon too.
const daemonFlag = "-daemon"

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports; reading it needs cgo.
const clockTick = 100

// daemonProc is one running child daemon.
type daemonProc struct {
	cmd      *exec.Cmd
	addr     string
	bootMs   float64
	stderr   bytes.Buffer
	waitOnce sync.Once
	waitErr  error
	reaped   atomic.Bool
}

// live tracks children and run directories so an aborted run (signal,
// guard timeout, failed assertion) leaves neither a process nor a
// directory behind.
var live struct {
	sync.Mutex
	procs map[*daemonProc]struct{}
	dirs  map[string]struct{}
}

func init() {
	live.procs = make(map[*daemonProc]struct{})
	live.dirs = make(map[string]struct{})
}

// cleanupAll kills every child and removes every run directory. Safe to
// call more than once and from a signal handler goroutine.
func cleanupAll() {
	live.Lock()
	procs := make([]*daemonProc, 0, len(live.procs))
	for d := range live.procs {
		procs = append(procs, d)
	}
	dirs := make([]string, 0, len(live.dirs))
	for d := range live.dirs {
		dirs = append(dirs, d)
	}
	live.Unlock()
	for _, d := range procs {
		d.kill()
	}
	for _, dir := range dirs {
		removeRunDir(dir)
	}
}

// newRunDir makes a fresh run directory under outDir/tmp.
func newRunDir(outDir string) (string, error) {
	base := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	live.Lock()
	live.dirs[dir] = struct{}{}
	live.Unlock()
	return dir, nil
}

func removeRunDir(dir string) {
	_ = os.RemoveAll(dir)
	live.Lock()
	delete(live.dirs, dir)
	live.Unlock()
}

// startDaemon re-execs this binary as the daemon on dir and waits for
// its ready line. The child leads its own process group (so kill takes
// anything it might spawn with it) and carries a parent-death signal:
// if the loader dies without running its cleanup, the kernel kills the
// daemon. procs is the child's GOMAXPROCS.
func startDaemon(ctx context.Context, dir string, procs int) (*daemonProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: exec.Command(exe, daemonFlag, "-dir", dir)}
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d.cmd.Stderr = &d.stderr
	// Pdeathsig fires when the forking *thread* exits; the Go runtime
	// only retires a thread when a goroutine exits while locked to it,
	// which nothing in this program does.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	live.procs[d] = struct{}{}
	live.Unlock()

	ready := make(chan error, 1)
	go func() {
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			ready <- fmt.Errorf("daemon exited before ready: %v", err)
			return
		}
		ready <- d.parseReady(line)
	}()
	select {
	case err := <-ready:
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("%w; stderr: %s", err, strings.TrimSpace(d.stderr.String()))
		}
		return d, nil
	case <-ctx.Done():
		d.kill()
		return nil, fmt.Errorf("daemon boot: %w", ctx.Err())
	}
}

func (d *daemonProc) parseReady(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "ready" {
		return fmt.Errorf("unexpected daemon output %q", line)
	}
	for _, f := range fields[1:] {
		k, v, _ := strings.Cut(f, "=")
		var err error
		switch k {
		case "addr":
			d.addr = v
		case "boot_ms":
			d.bootMs, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return fmt.Errorf("ready line %q: %v", line, err)
		}
	}
	if d.addr == "" {
		return fmt.Errorf("ready line %q has no addr", line)
	}
	return nil
}

func (d *daemonProc) wait() error {
	d.waitOnce.Do(func() {
		d.waitErr = d.cmd.Wait()
		d.reaped.Store(true)
		live.Lock()
		delete(live.procs, d)
		live.Unlock()
	})
	return d.waitErr
}

// kill is SIGKILL to the whole process group, then reap: the crash the
// recovery phase measures, and the last resort of every cleanup path.
func (d *daemonProc) kill() {
	if d.reaped.Load() {
		return // the pid may already belong to someone else
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	_ = d.wait()
}

// procUsage is the daemon's resource use as the kernel reports it.
type procUsage struct {
	userTicks, sysTicks int64
	runNs               int64 // 0 where the kernel keeps no schedstat
	hwmKB               int64
	threads             int
}

// usage reads /proc/<pid>/stat (utime, stime: fields 14 and 15),
// /proc/<pid>/status (VmHWM, Threads) and every thread's schedstat.
// utime and stime are sampled at the scheduler tick, which is coarse
// for a daemon that runs in bursts of 100 µs; schedstat's first field
// is the thread's exact time on a CPU in ns, without the user/system
// split. (A thread that exits takes its count along; the Go runtime
// does not retire threads in a daemon this short-lived.)
func (d *daemonProc) usage() (procUsage, error) {
	var u procUsage
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return u, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, errors.New("short /proc stat")
	}
	if u.userTicks, err = strconv.ParseInt(f[11], 10, 64); err != nil {
		return u, err
	}
	if u.sysTicks, err = strconv.ParseInt(f[12], 10, 64); err != nil {
		return u, err
	}
	threads, _ := filepath.Glob(filepath.Join("/proc", pid, "task", "*", "schedstat"))
	for _, path := range threads {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			u.runNs += ns
		}
	}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, _ := strings.Cut(line, ":")
		v = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
		switch k {
		case "VmHWM":
			u.hwmKB, _ = strconv.ParseInt(v, 10, 64)
		case "Threads":
			u.threads, _ = strconv.Atoi(v)
		}
	}
	return u, nil
}
