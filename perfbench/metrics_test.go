package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		set      string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: %d declared, %d printed", c.set, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", c.set, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
	want := []string{batchCold.name, batchWarm.name, serveZipf}
	if len(spec.Workloads) != len(want) {
		t.Fatalf("%d workloads declared, want %v", len(spec.Workloads), want)
	}
	for i, w := range spec.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d: declared %s, want %s", i, w.Name, want[i])
		}
	}
}
