package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// A virtual CPU with nothing to run halts, and a halted virtual CPU can
// take from tens of microseconds to milliseconds to run again when the
// host is busy: every request that finds its server or the generator
// idle would pay that. While a run measures, each CPU the benchmark
// uses therefore runs a spinner at SCHED_IDLE priority, which the
// kernel runs only when that CPU has nothing else to do and preempts
// the moment it has, so the CPUs never halt and no thread of the server
// or the generator waits for it.

const spinFlag = "-spin-cpu"

// spinMain is the spinner process: pinned to one CPU at SCHED_IDLE, it
// spins until its parent exits.
func spinMain(cpu int) {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	_ = setAffinity(0, maskOf([]int{cpu}))
	const schedIdle = 5
	var param struct{ priority int32 }
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	ppid := os.Getppid()
	for i := 0; ; i++ {
		if i&(1<<20-1) == 0 && os.Getppid() != ppid {
			return
		}
	}
}

// startSpinners runs one spinner per CPU in cpus and returns a function
// that stops them and waits for them to exit.
func startSpinners(cpus []int) func() {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var cmds []*exec.Cmd
	for _, c := range cpus {
		cmd := exec.Command(self, spinFlag, strconv.Itoa(c))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if cmd.Start() == nil {
			cmds = append(cmds, cmd)
		}
	}
	return func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}
}
