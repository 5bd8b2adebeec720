package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo names the machine and toolchain a report was taken on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func host(l layout) hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = l.root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// benchmarkFile is the part of BENCHMARK.json the repeat check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs the whole suite n times and prints, per workload and
// end-to-end metric, how much worse each later suite read than the first,
// against the bound BENCHMARK.json fixes for the metric. Two runs of the same
// code must agree within the benchmark's own bounds; the exit code says
// whether they did.
func runRepeat(o options, l layout, n int) int {
	if n < 2 {
		n = 2
	}
	b, err := os.ReadFile(filepath.Join(l.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	suites := make([]*suite, 0, n)
	for i := 0; i < n; i++ {
		fmt.Printf("---- suite %d of %d\n", i+1, n)
		su, err := runSuite(o, l)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		suites = append(suites, su)
	}
	if err := writeJSON(filepath.Join(l.out, "repeat.json"), suites); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	fmt.Printf("\n%-12s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "suite 1", fmt.Sprintf("suite %d", n), "worse by", "bound", "")
	for _, sp := range specs {
		for _, em := range bf.EndToEnd {
			first := suites[0].Workloads[sp.name].Metrics[em.Name]
			for i := 1; i < n; i++ {
				later := suites[i].Workloads[sp.name].Metrics[em.Name]
				worse := (later.Value - first.Value) / first.Value
				if em.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > em.Bound {
					verdict = "OUT OF BOUND"
					code = 1
				}
				fmt.Printf("%-12s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
					sp.name, em.Name, first.Value, later.Value, 100*worse, 100*em.Bound, verdict)
			}
		}
		for i, su := range suites {
			if r := su.Workloads[sp.name]; !r.Correct {
				fmt.Printf("%-12s suite %d failed its correctness checks (%d failed of %d)\n", sp.name, i+1, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}
