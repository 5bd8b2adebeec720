package experiments

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Component groups for Table 6, mapping the paper's component breakdown to
// this repository's packages. Every directory holding Go source outside
// bench/ and examples/ belongs to exactly one group; Table6 fails on one
// that does not, so a new package cannot go uncounted.
var table6Components = []struct {
	Label string
	Dirs  []string
}{
	{"Hardware (FPGA+µarch)", []string{"internal/fpga", "internal/uarch"}},
	{"Kernel", []string{"internal/kernel"}},
	{"Compiler", []string{"internal/compiler", "internal/mir", "internal/analysis"}},
	{"IPC Interfaces", []string{"internal/ipc"}},
	{"Runtime (VM)", []string{"internal/vm", "internal/mem", "internal/sim"}},
	{"Verifier", []string{"internal/verifier", "internal/policy"}},
	{"Framework", []string{"internal/supervisor", ".", "cmd/hqrun", "cmd/hqdemo"}},
	{"Network plane (hqd)", []string{"internal/hqnet", "cmd/hqd"}},
	{"Observability", []string{"internal/telemetry", "internal/obs"}},
	{"Fault injection + checking", []string{"internal/chaos", "internal/dsched", "internal/verify"}},
	{"Evaluation", []string{"internal/workload", "internal/ripe", "internal/experiments", "cmd/hqbench", "cmd/loccount"}},
}

// LoCRow is one component of Table 6: lines of code excluding blank and
// comment-only lines, split into non-test and test files.
type LoCRow struct {
	Label string
	Code  int
	Tests int
}

// LoCReport is Table 6 plus the raw size figure `make loc` tracks per PR.
type LoCReport struct {
	Components []LoCRow
	TotalCode  int
	TotalTests int
	// PhysicalLines counts every line — blanks and comments included — of
	// the non-test Go files outside bench/ (examples/ included): the
	// 27 040 → 26 573 → … series of ROADMAP "One of each".
	PhysicalLines int
}

// Table6 walks the module under root and counts lines of code per component,
// excluding tests, blank lines, and comment-only lines — roughly the paper's
// "approximate lines of code" measure. bench/ is the frozen benchmark and
// examples/ are documentation; neither is a component.
func Table6(root string) (*LoCReport, error) {
	component := make(map[string]int) // directory → index into Components
	rep := &LoCReport{}
	for i, c := range table6Components {
		rep.Components = append(rep.Components, LoCRow{Label: c.Label})
		for _, d := range c.Dirs {
			component[d] = i
		}
	}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if e.IsDir() {
			if rel == "bench" || (rel != "." && strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(rel, "_test.go")
		if !test {
			rep.PhysicalLines += bytes.Count(src, []byte{'\n'})
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir == "examples" || strings.HasPrefix(dir, "examples/") {
			return nil
		}
		i, ok := component[dir]
		if !ok {
			return fmt.Errorf("table6: %s is in no component of table6Components", dir)
		}
		if n := countLoC(src); test {
			rep.Components[i].Tests += n
			rep.TotalTests += n
		} else {
			rep.Components[i].Code += n
			rep.TotalCode += n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Format renders the table, with the physical-line figure on the last line.
func (r *LoCReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %8s %8s\n", "Component", "Code", "Tests")
	for _, c := range r.Components {
		fmt.Fprintf(&sb, "%-28s %8d %8d\n", c.Label, c.Code, c.Tests)
	}
	fmt.Fprintf(&sb, "%-28s %8d %8d\n", "Total", r.TotalCode, r.TotalTests)
	fmt.Fprintf(&sb, "non-test Go lines outside bench/ (physical): %d\n", r.PhysicalLines)
	return sb.String()
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so Table 6 counts the same tree from `go run` at the root and from
// `go test` inside a package.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("table6: no go.mod above the working directory")
		}
		dir = parent
	}
}

// countLoC counts non-blank, non-comment-only lines of Go source.
func countLoC(src []byte) int {
	n := 0
	inBlock := false
	for _, raw := range bytes.Split(src, []byte{'\n'}) {
		line := strings.TrimSpace(string(raw))
		if line == "" {
			continue
		}
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") && !strings.Contains(line, "*/") {
			inBlock = true
			continue
		}
		n++
	}
	return n
}
