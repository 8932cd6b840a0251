package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport drops a trace-report JSON into a temp file and returns
// its path.
func writeReport(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const goodSLO = `"slo": {"configured": true, "name": "query_latency_p99",
	"percentile": 0.99, "objective_ms": 30000, "samples": 2, "retained": 2,
	"observed_ms": 12.5, "violations": 0, "burn_rate": 0, "pass": true}`

// attributed builds one query ledger whose billed stages cover the
// given fraction of a 100ms total.
func attributed(name string, frac float64) string {
	return billedNS(name, int64(frac*100e6))
}

// billedNS builds one query ledger of a 100ms total whose billed stages
// sum to billed nanoseconds.
func billedNS(name string, billed int64) string {
	return fmt.Sprintf(`{"trace_id": %[1]q, "name": %[1]q,
		"total_ns": 100000000, "billed_wall_ns": %[2]d, "billed_tokens": 10,
		"entries": [{"stage": "predict", "wall_ns": %[2]d, "tokens": 10, "billed": true}]}`,
		name, billed)
}

func TestTraceguardPassesFullyAttributedReport(t *testing.T) {
	p := writeReport(t, `{`+goodSLO+`, "stage_totals": [],
		"queries": [`+attributed("q1", 1.0)+`, `+attributed("q2", 1.0)+`]}`)
	var out, errOut bytes.Buffer
	if err := run([]string{"-trace", p, "-require-slo"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "2 queries fully attributed") ||
		!strings.Contains(out.String(), "slo query_latency_p99: pass") {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestTraceguardFailsOnUnattributedWallClock(t *testing.T) {
	p := writeReport(t, `{`+goodSLO+`, "stage_totals": [],
		"queries": [`+attributed("q1", 0.5)+`]}`)
	var out, errOut bytes.Buffer
	err := run([]string{"-trace", p}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "unattributed wall-clock") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(errOut.String(), "q1") {
		t.Fatalf("stderr names no offending query: %q", errOut.String())
	}
}

// TestTraceguardFailsOneNanosecondShort: billed stages tile a query's
// span exactly, so a ledger 1ns short of its total fails the gate.
func TestTraceguardFailsOneNanosecondShort(t *testing.T) {
	p := writeReport(t, `{`+goodSLO+`, "stage_totals": [],
		"queries": [`+attributed("q1", 1.0)+`, `+billedNS("q2", 100e6-1)+`]}`)
	var out, errOut bytes.Buffer
	err := run([]string{"-trace", p}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 queries have unattributed wall-clock") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(errOut.String(), "q2") || strings.Contains(errOut.String(), "q1") {
		t.Fatalf("stderr must name q2 only: %q", errOut.String())
	}
}

func TestTraceguardFailsOnMalformedSLOSection(t *testing.T) {
	// An unknown field in the slo object is the same break a /debug/slo
	// consumer would see — strict decoding must reject it.
	p := writeReport(t, `{"slo": {"configured": true, "pass": true, "bogus_field": 1},
		"stage_totals": [], "queries": [`+attributed("q1", 1.0)+`]}`)
	var out, errOut bytes.Buffer
	err := run([]string{"-trace", p}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "malformed /debug/slo JSON") {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceguardFailsOnFailingSLO(t *testing.T) {
	p := writeReport(t, `{"slo": {"configured": true, "name": "query_latency_p99",
		"percentile": 0.99, "objective_ms": 1, "samples": 2, "retained": 2,
		"observed_ms": 50, "violations": 2, "burn_rate": 100, "pass": false},
		"stage_totals": [], "queries": [`+attributed("q1", 1.0)+`]}`)
	var out, errOut bytes.Buffer
	err := run([]string{"-trace", p, "-require-slo"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "failing") {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceguardRequireSLOUnconfigured(t *testing.T) {
	p := writeReport(t, `{"slo": {"configured": false, "samples": 0, "retained": 0,
		"observed_ms": 0, "violations": 0, "burn_rate": 0, "pass": true},
		"stage_totals": [], "queries": [`+attributed("q1", 1.0)+`]}`)
	var out, errOut bytes.Buffer
	err := run([]string{"-trace", p, "-require-slo"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "not configured") {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceguardEmptyReport(t *testing.T) {
	p := writeReport(t, `{`+goodSLO+`, "stage_totals": [], "queries": []}`)
	var out, errOut bytes.Buffer
	err := run([]string{"-trace", p}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "no query ledgers") {
		t.Fatalf("err = %v", err)
	}
}
