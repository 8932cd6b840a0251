package load

import (
	"fmt"
	"math"
	"time"

	"repro/internal/xrand"
)

// Schedule materializes the arrival process as n offsets from the run
// start, in nondecreasing order. The schedule is a pure function of
// (process parameters, seed, n): the same scenario produces the same
// bit-identical schedule on every run and every machine, which is what
// makes a load run replayable and two topologies comparable under the
// exact same offered traffic.
func (a Arrival) Schedule(seed uint64, n int) ([]time.Duration, error) {
	if n <= 0 {
		return nil, fmt.Errorf("load: schedule needs n > 0")
	}
	if a.RatePerSec <= 0 {
		return nil, fmt.Errorf("load: schedule needs rate_per_sec > 0")
	}
	switch a.Process {
	case ProcessPoisson:
		return a.poisson(seed, n), nil
	case ProcessBursty:
		return a.bursty(n)
	default:
		return nil, fmt.Errorf("load: unknown arrival process %q", a.Process)
	}
}

// poisson draws exponential inter-arrival gaps: t_{k+1} = t_k +
// Exp(rate). The RNG stream is split off the seed under a fixed label,
// so arrival draws can never collide with (or perturb) the tenant and
// node draws made from the same scenario seed.
func (a Arrival) poisson(seed uint64, n int) []time.Duration {
	rng := xrand.New(seed).SplitString("load/arrival")
	out := make([]time.Duration, n)
	var t float64 // seconds
	for i := 0; i < n; i++ {
		u := rng.Float64()
		// -ln(1-u)/rate; 1-u is in (0, 1] so the log is finite.
		t += -math.Log1p(-u) / a.RatePerSec
		out[i] = secs(t)
	}
	return out
}

// bursty places arrivals at exact 1/rate spacing inside ON windows and
// skips OFF windows entirely. It needs no randomness: arrival k sits at
// on-time k/rate, and on-time maps to wall time by inserting one OFF
// gap per completed ON window — so the duty cycle is exact by
// construction, not in expectation.
func (a Arrival) bursty(n int) ([]time.Duration, error) {
	if a.OnMS <= 0 {
		return nil, fmt.Errorf("load: bursty arrivals need on_ms > 0")
	}
	if a.OffMS < 0 {
		return nil, fmt.Errorf("load: negative off_ms")
	}
	on := a.OnMS / 1e3 // seconds
	off := a.OffMS / 1e3
	step := 1 / a.RatePerSec
	out := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		onTime := float64(i) * step
		cycles := math.Floor(onTime / on)
		wall := onTime + cycles*off
		out[i] = secs(wall)
	}
	return out, nil
}

// secs converts seconds to a Duration with rounding, so a wall time
// that is exactly representable in milliseconds does not truncate to
// one nanosecond short of it.
func secs(t float64) time.Duration {
	return time.Duration(t*float64(time.Second) + 0.5)
}
