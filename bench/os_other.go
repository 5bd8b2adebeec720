//go:build !linux

package main

import (
	"errors"
	"os"
	"os/exec"
	"time"
)

// The benchmark reads CPU time and resident-set size from Linux's /proc;
// elsewhere it compiles but the workloads refuse to run.

var errNeedsLinux = errors.New("bench: CPU and RSS accounting needs Linux /proc")

func selfCPU() time.Duration                 { return 0 }
func procCPU(pid int) (time.Duration, error) { return 0, errNeedsLinux }
func peakRSSMB(pid int) (float64, error)     { return 0, errNeedsLinux }
func selfRSSMB() (float64, error)            { return 0, errNeedsLinux }
func dieWithParent(cmd *exec.Cmd)            {}

func preciseSleep(d time.Duration) { time.Sleep(d) }

// spinIdle has no idle scheduling class to spin in; the keep-awake child just ends.
func spinIdle() { os.Exit(0) }
