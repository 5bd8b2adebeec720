package main

import (
	"fmt"
	"os"
	"os/exec"
)

// The seed machine is a 2-vCPU microVM. Whenever a vCPU has nothing to run
// the guest halts it, and how long the host then takes to bring it back —
// for a timer, or for a wake-up from the other vCPU — depends on what the
// host's other tenants are doing at that moment, not on the program. Every
// workload here parks and wakes threads thousands of times a second (ring
// full, ring empty, shard queue empty, socket reads, gate verdicts), so that
// latency is in every number: with nothing else running, ring_stream read
// 11.6-16.4 M msgs/s and net_gate's gate_p50_us 180-254 µs between
// back-to-back runs of the same code, moving together, for minutes at a
// time, while single-threaded compute, memory latency, copy bandwidth and a
// cross-core cache-line ping-pong stayed flat.
//
// keepAwake takes that variable out. For the length of a run it keeps one
// child process with one thread per processor spinning in the kernel's
// SCHED_IDLE class: those threads run only when nothing else wants the
// processor and are preempted the moment anything does, so they cost the
// workload nothing but no vCPU ever halts. The child is a process of its own
// so its CPU time is in nobody's cpu_us_per_msg.

// keepAwakeFlag is the hidden flag the benchmark re-executes itself with.
const keepAwakeFlag = "-keepawake"

// keepAwake starts the spinning child and returns the function that stops
// and reaps it. Where the child cannot be started the run goes on without
// it, noisier, and says so.
func keepAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: no keep-awake child:", err)
		return func() {}
	}
	cmd := exec.Command(self, keepAwakeFlag)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: no keep-awake child:", err)
		return func() {}
	}
	return func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
}
