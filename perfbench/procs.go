package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// server is one running gcserved process.
type server struct {
	cmd      *exec.Cmd
	wireAddr string

	mu  sync.Mutex
	out bytes.Buffer // everything the process printed

	exited  chan struct{}
	waitErr error
}

// live holds every server process not yet reaped, so an early exit
// can stop them all.
var (
	liveMu sync.Mutex
	live   = map[*server]bool{}
)

var wireLine = regexp.MustCompile(`gcwire binary protocol on (\S+)`)

// startServer launches gcserved with args on the given CPUs (nil: any)
// and waits until its wire listener is up. env is added to the
// benchmark's own environment.
func startServer(bin string, args, env []string, cpus []int) (*server, error) {
	cmd := exec.Command(filepath.Join(bin, "gcserved"), args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := startPinned(cmd, cpus); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start gcserved: %w", err)
	}
	pw.Close()
	s := &server{cmd: cmd, exited: make(chan struct{})}
	liveMu.Lock()
	live[s] = true
	liveMu.Unlock()

	addrc := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.out.WriteString(line + "\n")
			s.mu.Unlock()
			if m := wireLine.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		pr.Close()
	}()
	go func() {
		err := cmd.Wait()
		<-scanDone
		s.waitErr = err
		close(s.exited)
	}()

	select {
	case s.wireAddr = <-addrc:
		return s, nil
	case <-s.exited:
		s.reap()
		return nil, fmt.Errorf("gcserved exited before listening: %v\n%s", s.waitErr, s.output())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("gcserved did not start listening within 60s\n%s", s.output())
	}
}

func (s *server) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.String()
}

func (s *server) reap() {
	liveMu.Lock()
	delete(live, s)
	liveMu.Unlock()
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.reap()
}

var drainedLine = regexp.MustCompile(`drained; accepted=(\d+) served=(\d+)`)

// stop sends SIGTERM and waits for the drain. It fails unless the
// process exits cleanly and reports accepted == served.
func (s *server) stop() error {
	defer s.reap()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(40 * time.Second):
		s.kill()
		return fmt.Errorf("gcserved did not drain within 40s")
	}
	if s.waitErr != nil {
		return fmt.Errorf("gcserved exited with %v\n%s", s.waitErr, s.output())
	}
	m := drainedLine.FindStringSubmatch(s.output())
	if m == nil {
		return fmt.Errorf("gcserved printed no drain line\n%s", s.output())
	}
	if m[1] != m[2] {
		return fmt.Errorf("gcserved drain: accepted=%s served=%s", m[1], m[2])
	}
	return nil
}

// stopAll kills every server still running; for exits on error paths.
func stopAll() {
	liveMu.Lock()
	all := make([]*server, 0, len(live))
	for s := range live {
		all = append(all, s)
	}
	liveMu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// cpuTicks returns the process's user+system CPU time in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return u + st, nil
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 10 * time.Millisecond

// peakRSSKiB returns the process's peak resident set (VmHWM) in KiB.
func (s *server) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// freePort returns a loopback address with a currently unused port, for
// cluster members whose addresses must be known before they start.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// cpuSet is a sched_setaffinity mask.
type cpuSet [16]uint64

func maskOf(cpus []int) *cpuSet {
	var m cpuSet
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return &m
}

func setAffinity(tid int, m *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

func getAffinity(m *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// startPinned starts cmd with its CPU affinity set to cpus: the child
// is forked from this goroutine's locked thread and inherits the mask
// set on it, which is restored afterwards.
func startPinned(cmd *exec.Cmd, cpus []int) error {
	if len(cpus) == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old cpuSet
	if err := getAffinity(&old); err != nil {
		return cmd.Start()
	}
	if err := setAffinity(0, maskOf(cpus)); err != nil {
		return cmd.Start()
	}
	err := cmd.Start()
	if rerr := setAffinity(0, &old); rerr != nil && err == nil {
		err = fmt.Errorf("restore thread affinity: %w", rerr)
	}
	return err
}

// pinSelf moves every thread of this process onto cpus. Threads the
// runtime starts later are cloned from these and inherit the mask.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	m := maskOf(cpus)
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil {
			return fmt.Errorf("pin thread %d: %w", tid, err)
		}
	}
	return nil
}

// cpuSplit divides the CPUs this process may use between the servers
// (the first half) and the load generator (the rest), so neither steals
// the other's cores. With a single CPU both share it.
func cpuSplit() (servers, generator []int) {
	var m cpuSet
	if err := getAffinity(&m); err != nil {
		return nil, nil
	}
	var all []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]>>(c%64)&1 == 1 {
			all = append(all, c)
		}
	}
	if len(all) < 2 {
		return nil, nil
	}
	half := len(all) / 2
	return all[:half], all[half:]
}

// hostSteal returns the machine's cumulative steal and total CPU ticks
// from /proc/stat: time a hypervisor ran something else while this
// machine's CPUs had work.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
