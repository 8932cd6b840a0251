package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must have
// beyond it: p99 needs at least 1000 samples, p50 at least 20.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs. It refuses to
// report a percentile with fewer than minTail samples beyond it, since
// such a tail is one or two outliers, not a distribution.
func quantile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v outside (0,1)", q)
	}
	if beyond := float64(len(xs)) * (1 - q); beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %.1f of %d", q*100, minTail, beyond, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// maxChunks bounds how many consecutive slices chunkedQuantile splits
// a phase into.
const maxChunks = 3

// chunkedQuantile splits xs, in arrival order, into as many equal
// consecutive slices (up to maxChunks) as still leave minTail samples
// beyond q in each, and returns the median of the slices' q-quantiles.
// A burst of noise from outside the program (another process taking
// the processor for a moment) lands in one slice and moves the median
// far less than it moves a quantile of the pooled samples.
func chunkedQuantile(xs []float64, q float64) (float64, error) {
	perChunk := int(math.Ceil(minTail / (1 - q)))
	k := min(maxChunks, max(1, len(xs)/perChunk))
	var qs []float64
	for i := 0; i < k; i++ {
		v, err := quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
		if err != nil {
			return 0, err
		}
		qs = append(qs, v)
	}
	return median(qs), nil
}

// median is the middle value (mean of the two middle values for even
// counts); it is used for per-run summaries of a few repeated
// measurements, where the percentile rule above does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// share is a ratio that keeps its base, so a reported share can always
// be traced back to how many events it was computed over.
type share struct {
	Num  float64 `json:"num"`
	Base float64 `json:"base"`
}

// Value is Num/Base, and 0 over an empty base.
func (s share) Value() float64 {
	if s.Base == 0 {
		return 0
	}
	return s.Num / s.Base
}

func (s share) String() string {
	return fmt.Sprintf("%.6g (%g of %g)", s.Value(), s.Num, s.Base)
}

// stepResult is one ramp step's outcome.
type stepResult struct {
	Rate       float64 `json:"rate_per_s"`
	Sent       int     `json:"sent"`
	InSLO      share   `json:"in_slo"`
	Rejected   int     `json:"rejected"`
	QueueEarly float64 `json:"queue_depth_early"`
	QueueLate  float64 `json:"queue_depth_late"`
}

// Ramp pass rule: a step holds the SLO when at least 99% of the
// requests sent got a 200 within the latency limit, none was rejected,
// and the admission queue did not grow across the step.
const (
	rampAttainment = 0.99
	// queueGrowthSlack absorbs the depth one window naturally holds.
	queueGrowthSlack = 8
)

// passes applies the ramp pass rule. Attainment is over requests sent,
// so it needs at least minTail/(1-rampAttainment) of them to mean
// anything.
func (r stepResult) passes() bool {
	if r.InSLO.Base < minTail/(1-rampAttainment) {
		return false
	}
	return r.InSLO.Value() >= rampAttainment && r.Rejected == 0 && !queueGrew(r.QueueEarly, r.QueueLate)
}

// queueGrew reports a backlog that built up over the step: the mean
// depth in its last quarter is more than twice that of its first
// quarter plus the slack of one window's worth of requests.
func queueGrew(early, late float64) bool {
	return late > 2*early+queueGrowthSlack
}

// maxRateInSLO is the highest rate below which every step passed; 0
// when the lowest step already fails. Steps may come in any order.
func maxRateInSLO(steps []stepResult) float64 {
	steps = append([]stepResult(nil), steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].Rate < steps[j].Rate })
	best := 0.0
	for _, s := range steps {
		if !s.passes() {
			break
		}
		best = s.Rate
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
