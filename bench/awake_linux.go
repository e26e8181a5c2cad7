//go:build linux

package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// A VM's virtual CPU that runs out of work halts, and the host takes the
// core away: what it runs there meanwhile evicts the benchmark's cache
// lines, and the core clocks down. The open loops sleep a thousand times a
// second, and on the VMs this was written on they then spent 30 to 60 %
// more time per operation than the same code under the same load did an
// hour before or after, as the neighbours came and went; with the CPU
// kept awake the numbers repeat. So the benchmark does what idle=poll
// does on a machine one owns: it pins itself to one CPU and has a child
// process spin on that CPU at SCHED_IDLE priority. The kernel runs the
// spinner only when the benchmark has nothing to run and takes the CPU
// from it the moment the benchmark wakes; the spinner is another process,
// so its CPU time is not in the benchmark's cpu_us_per_op.

// cpuSet is the kernel's CPU affinity mask, wide enough for 1024 CPUs.
type cpuSet [16]uint64

func setAffinity(tid int, set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return errno
	}
	return nil
}

// lastAllowedCPU returns the highest CPU this process may run on: the
// lowest ones serve most device interrupts.
func lastAllowedCPU() (int, error) {
	var set cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return 0, errno
	}
	for cpu := len(set)*64 - 1; cpu >= 0; cpu-- {
		if set[cpu/64]&(1<<(cpu%64)) != 0 {
			return cpu, nil
		}
	}
	return 0, fmt.Errorf("empty CPU affinity mask")
}

// pinProcess moves every thread of this process onto one CPU. A thread
// inherits its creator's mask, so once every existing thread is pinned
// every later one is; the second pass catches a thread an unpinned one
// created during the first.
func pinProcess(cpu int) error {
	var set cpuSet
	set[cpu/64] = 1 << (cpu % 64)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, &set); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// keepAwake pins the process and starts the spinner. stop ends the
// spinner and waits for it. Where the kernel refuses — no such system
// call, a CPU set that may not be changed — the benchmark runs as it is,
// and the returned note says so.
func keepAwake() (stop func(), note string) {
	stop = func() {}
	cpu, err := lastAllowedCPU()
	if err == nil {
		err = pinProcess(cpu)
	}
	if err != nil {
		return stop, fmt.Sprintf("not pinned, CPU not kept awake: %v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return stop, fmt.Sprintf("pinned to CPU %d, CPU not kept awake: %v", cpu, err)
	}
	spinner := exec.Command(exe, "-spin")
	spinner.Stderr = os.Stderr
	// The spinner runs until this pipe closes, so it outlives the
	// benchmark on no path out of it, a kill included.
	pipe, err := spinner.StdinPipe()
	if err == nil {
		err = spinner.Start()
	}
	if err != nil {
		return stop, fmt.Sprintf("pinned to CPU %d, CPU not kept awake: %v", cpu, err)
	}
	stop = func() {
		pipe.Close()
		spinner.Wait() // it exits 0 or was never alive; nothing to do about either
	}
	return stop, fmt.Sprintf("pinned to CPU %d, kept awake by a SCHED_IDLE spinner (pid %d)", cpu, spinner.Process.Pid)
}

// spin is the child: it inherits the benchmark's one-CPU mask, drops to
// SCHED_IDLE and burns whatever the benchmark leaves until its standard
// input closes.
func spin() int {
	// The watcher starts first: a thread inherits its creator's policy.
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	const schedIdle = 5
	var param struct{ priority int32 }
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// At normal priority it would take half the CPU from the benchmark.
		fmt.Fprintln(os.Stderr, "bench: spinner: SCHED_IDLE refused:", errno)
		return 1
	}
	for {
	}
}
