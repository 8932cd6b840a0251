// Command traceguard is the CI gate for query-lifecycle tracing: it
// reads the trace report an instrumented run wrote (mqorun
// -trace-sample 1 -trace-json …) and fails when the books do not
// balance — billed stages tile every query's span by construction, so
// a query whose billed stage walls differ from its span by even a
// nanosecond means some layer is spending wall-clock no ledger stage
// accounts for, and a malformed SLO section means /debug/slo consumers
// would break.
//
// Usage:
//
//	traceguard -trace trace.json
//	traceguard -trace trace.json -require-slo
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "traceguard: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("traceguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath  = fs.String("trace", "", "trace report JSON written by mqorun -trace-json (required)")
		requireSLO = fs.Bool("require-slo", false, "additionally fail unless the SLO is configured and passing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	raw, err := os.ReadFile(*tracePath)
	if err != nil {
		return err
	}
	rep, err := decodeReport(raw)
	if err != nil {
		return err
	}

	if len(rep.Queries) == 0 {
		return fmt.Errorf("%s holds no query ledgers — was the run traced (-trace-sample 1)?", *tracePath)
	}
	bad := 0
	for _, q := range rep.Queries {
		if q.BilledWall != q.Total {
			bad++
			fmt.Fprintf(stderr, "traceguard: query %s (%s): billed stages sum to %s of a %s span, need exactly the span\n",
				q.Name, q.TraceID, q.BilledWall, q.Total)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d queries have unattributed wall-clock", bad, len(rep.Queries))
	}
	if *requireSLO {
		if !rep.SLO.Configured {
			return fmt.Errorf("SLO engine not configured (run with -slo-latency-p99)")
		}
		if !rep.SLO.Pass {
			return fmt.Errorf("SLO %q failing: observed %.1fms over %d samples against %.1fms objective (burn %.2f)",
				rep.SLO.Name, rep.SLO.ObservedMS, rep.SLO.Samples, rep.SLO.ObjectiveMS, rep.SLO.BurnRate)
		}
	}
	fmt.Fprintf(stdout, "traceguard: %d queries fully attributed (billed stages tile every span)", len(rep.Queries))
	if rep.SLO.Configured {
		verdict := "pass"
		if !rep.SLO.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(stdout, "; slo %s: %s", rep.SLO.Name, verdict)
	}
	fmt.Fprintln(stdout)
	return nil
}

// decodeReport parses the trace report strictly. The SLO section is
// the exact JSON /debug/slo serves, so an unknown or missing field
// here is the same break a monitoring consumer of that endpoint would
// see — it must fail the gate, not slide through a lenient decode.
func decodeReport(raw []byte) (obs.TraceReport, error) {
	var shape struct {
		SLO         json.RawMessage `json:"slo"`
		StageTotals json.RawMessage `json:"stage_totals"`
		Queries     json.RawMessage `json:"queries"`
	}
	if err := json.Unmarshal(raw, &shape); err != nil {
		return obs.TraceReport{}, fmt.Errorf("malformed trace report: %w", err)
	}
	if len(shape.SLO) == 0 {
		return obs.TraceReport{}, fmt.Errorf("trace report has no slo section")
	}
	var rep obs.TraceReport
	dec := json.NewDecoder(bytes.NewReader(shape.SLO))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep.SLO); err != nil {
		return obs.TraceReport{}, fmt.Errorf("malformed /debug/slo JSON: %w", err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return obs.TraceReport{}, fmt.Errorf("malformed trace report: %w", err)
	}
	return rep, nil
}
