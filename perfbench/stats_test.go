package main

import (
	"math"
	"strings"
	"testing"
)

func constant(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true},
		{12, 0.1, true}, {0, 0.5, false},
	} {
		_, err := quantile(constant(c.n, 1), c.q)
		if got := err == nil; got != c.want {
			t.Errorf("quantile(n=%d, q=%v): reported=%v, want %v (err %v)", c.n, c.q, got, c.want, err)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 … 1, unsorted input
	}
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990, 0.9: 900} {
		got, err := quantile(xs, q)
		if err != nil || got != want {
			t.Errorf("quantile(%v) = %v, %v; want %v", q, got, err, want)
		}
	}
}

func TestChunkedQuantileIgnoresOneBurst(t *testing.T) {
	xs := constant(3000, 1)
	for i := 100; i < 140; i++ { // a 40-request stall inside the first third
		xs[i] = 100
	}
	if pooled, _ := quantile(xs, 0.99); pooled != 100 {
		t.Fatalf("pooled p99 = %v, the burst should reach it", pooled)
	}
	got, err := chunkedQuantile(xs, 0.99)
	if err != nil || got != 1 {
		t.Errorf("chunked p99 = %v, %v; want 1", got, err)
	}
	// Too few samples for even one chunk is refused, not guessed.
	if _, err := chunkedQuantile(constant(500, 1), 0.99); err == nil {
		t.Error("chunked p99 of 500 samples was reported")
	}
	// Fewer samples mean fewer chunks, each still with ten beyond p99.
	if got, err := chunkedQuantile(constant(1999, 2), 0.99); err != nil || got != 2 {
		t.Errorf("chunked p99 of 1999 samples = %v, %v", got, err)
	}
}

func TestShareCarriesItsBase(t *testing.T) {
	if v := (share{}).Value(); v != 0 {
		t.Errorf("empty share = %v, want 0", v)
	}
	s := share{Num: 3, Base: 4}
	if s.Value() != 0.75 || !strings.Contains(s.String(), "3 of 4") {
		t.Errorf("share %v renders %q", s.Value(), s)
	}
}

func TestRampPassRule(t *testing.T) {
	ok := stepResult{Rate: 800, Sent: 1200, InSLO: share{Num: 1188, Base: 1200}, QueueEarly: 3, QueueLate: 4}
	for _, c := range []struct {
		name string
		edit func(*stepResult)
		want bool
	}{
		{"99% in SLO", func(*stepResult) {}, true},
		{"below 99%", func(s *stepResult) { s.InSLO.Num = 1187 }, false},
		{"one rejection", func(s *stepResult) { s.Rejected = 1 }, false},
		{"growing queue", func(s *stepResult) { s.QueueLate = 2*s.QueueEarly + queueGrowthSlack + 1 }, false},
		{"queue within slack", func(s *stepResult) { s.QueueLate = 2*s.QueueEarly + queueGrowthSlack }, true},
		{"too few requests to judge 99%", func(s *stepResult) { s.InSLO = share{Num: 999, Base: 999} }, false},
	} {
		s := ok
		c.edit(&s)
		if got := s.passes(); got != c.want {
			t.Errorf("%s: passes() = %v, want %v", c.name, got, c.want)
		}
	}

	fail := ok
	fail.Rejected = 5
	steps := []stepResult{ok, ok, fail, ok}
	steps[0].Rate, steps[1].Rate, steps[2].Rate, steps[3].Rate = 600, 800, 1000, 1200
	if got := maxRateInSLO(steps); got != 800 {
		t.Errorf("maxRateInSLO = %v, want 800: a pass after a failed step does not count", got)
	}
	if got := maxRateInSLO(steps[2:]); got != 0 {
		t.Errorf("maxRateInSLO with a failing first step = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 || math.IsNaN(got) {
		t.Errorf("median empty = %v", got)
	}
}
