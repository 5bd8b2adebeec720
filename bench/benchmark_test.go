package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the module root is the contract later PRs are measured
// against; this test holds it to what the code actually reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, code runs %d", len(bf.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bf.Workloads[i].Name != sp.name {
			t.Errorf("workload %d is %q, code has %q", i, bf.Workloads[i].Name, sp.name)
		}
		if bf.Workloads[i].Why != sp.why {
			t.Errorf("workload %s: why differs from the code's", sp.name)
		}
		if len(sp.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", sp.name, len(sp.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, code reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, em := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != em.name || got.Unit != em.unit || got.Better != em.better {
			t.Errorf("end-to-end %d is %+v, code has %+v", i, got, em)
		}
		if got.Bound == nil || *got.Bound <= 0 || *got.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound missing or outside (0, 0.25]", got.Name)
		}
		sawSetup = sawSetup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(layerRows) {
		t.Fatalf("%d per-layer metrics listed, code reports %d", len(bf.PerLayer), len(layerRows))
	}
	if len(layerRows) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(layerRows))
	}
	seen := map[string]bool{}
	for i, lr := range layerRows {
		got := bf.PerLayer[i]
		if got.Name != lr.name || got.Unit != lr.unit || got.Better != lr.better {
			t.Errorf("per-layer %d is %+v, code has %+v", i, got, lr)
		}
		if got.Bound != nil {
			t.Errorf("per-layer %s carries a bound", got.Name)
		}
		if seen[lr.name] || lr.moves == "" {
			t.Errorf("per-layer %s: duplicate name or no should-move entry", lr.name)
		}
		seen[lr.name] = true
	}
}
