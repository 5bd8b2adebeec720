//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// selfCPU is the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the user+system CPU time of process pid (all its threads), from
// the utime and stime fields of /proc/<pid>/stat. The kernel reports them in
// 10 ms ticks, so callers difference them over intervals of a second or more.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in USER_HZ (100) ticks.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// statusMB reads one "<field>: <n> kB" line of a /proc status file, in MiB.
func statusMB(path, field string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			if f := strings.Fields(line); len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("bench: no %s in %s", field, path)
}

// peakRSSMB is the resident-set high-water mark (VmHWM) of process pid.
func peakRSSMB(pid int) (float64, error) {
	return statusMB(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
}

// selfRSSMB is this process's current resident set (VmRSS).
func selfRSSMB() (float64, error) { return statusMB("/proc/self/status", "VmRSS") }

// dieWithParent makes the kernel kill the child if this process dies first,
// so a crashed or killed benchmark never leaves an hqd behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// preciseSleep blocks for d with the kernel's high-resolution timer. Go's
// time.Sleep rounds sub-millisecond waits up to a millisecond whenever the
// runtime goes idle (its poller takes a millisecond timeout), which would
// make an open-loop generator late by most of a millisecond on every
// request; nanosleep(2) overshoots by tens of microseconds instead.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only means more spinning
}

// schedIdle is the kernel's SCHED_IDLE scheduling class.
const schedIdle = 5

// spinIdle is the keep-awake child (see awake.go). It pins one thread to
// every processor this process may run on, moves it into SCHED_IDLE and
// spins it, and never returns. If a thread cannot enter the class the
// process exits instead: a spinner at normal priority would take the
// workload's processors.
func spinIdle() {
	var allowed [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		fmt.Fprintln(os.Stderr, "bench: keep-awake: sched_getaffinity:", e)
		os.Exit(1)
	}
	for cpu := 0; cpu < 64*len(allowed); cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		go func(cpu int) {
			runtime.LockOSThread()
			var one [16]uint64
			one[cpu/64] = 1 << (cpu % 64)
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e == 0 {
				var priority int32
				_, _, e = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority)))
			}
			if e != 0 {
				fmt.Fprintln(os.Stderr, "bench: keep-awake: cannot pin an idle-class thread:", e)
				os.Exit(1)
			}
			for {
			}
		}(cpu)
	}
	select {}
}
