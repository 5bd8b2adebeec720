package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"herqules/internal/experiments"
)

func TestRunUsageErrorsAndOut(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	for _, tc := range []struct {
		name       string
		args       []string
		wantExit   int
		wantStderr []string // every substring must appear
		wantFile   bool
	}{
		{
			name:       "unknown experiment lists the registry",
			args:       []string{"-exp", "nosuch"},
			wantExit:   2,
			wantStderr: append([]string{`unknown experiment "nosuch"`}, registryNames()...),
		},
		{
			name:       "-out with -exp all",
			args:       []string{"-exp", "all", "-out", out},
			wantExit:   2,
			wantStderr: []string{"-out needs exactly one experiment"},
		},
		{
			name:       "-out with an experiment that has no Data",
			args:       []string{"-exp", "obs", "-out", out},
			wantExit:   2,
			wantStderr: []string{"obs has no JSON report"},
		},
		{
			name:       "unknown scale",
			args:       []string{"-exp", "table2", "-scale", "huge"},
			wantExit:   2,
			wantStderr: []string{`unknown scale "huge"`},
		},
		{
			name:       "every registry name appears in -h",
			args:       []string{"-h"},
			wantExit:   0,
			wantStderr: registryNames(),
		},
		{
			name:     "-exp table2 -out writes the report",
			args:     []string{"-exp", "table2", "-out", out},
			wantExit: 0,
			wantFile: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			os.Remove(out)
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.wantExit {
				t.Fatalf("exit = %d, want %d\nstderr: %s", got, tc.wantExit, stderr.String())
			}
			for _, want := range tc.wantStderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			data, err := os.ReadFile(out)
			if !tc.wantFile {
				if err == nil {
					t.Errorf("wrote %s on a run that must write nothing", out)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Indented JSON with a trailing newline: the BENCH_*.json convention.
			var rows []experiments.IPCRow
			if err := json.Unmarshal(data, &rows); err != nil || len(rows) == 0 {
				t.Fatalf("report does not parse as Table 2 rows (%v):\n%s", err, data)
			}
			if !bytes.HasPrefix(data, []byte("[\n  {")) || !bytes.HasSuffix(data, []byte("]\n")) {
				t.Errorf("report is not indented JSON with a trailing newline:\n%s", data)
			}
			if !strings.Contains(stdout.String(), "wrote "+out) {
				t.Errorf("stdout does not name the written file:\n%s", stdout.String())
			}
		})
	}
}

func registryNames() []string {
	var names []string
	for _, e := range experiments.All {
		names = append(names, e.Name)
	}
	return names
}
