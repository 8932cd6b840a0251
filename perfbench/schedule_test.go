package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/tag"
)

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	pop := newPopularity(7, 5000, zipfSkew)
	a := schedule(7, "peak", peakRate, 3*time.Second, pop)
	b := schedule(7, "peak", peakRate, 3*time.Second, newPopularity(7, 5000, zipfSkew))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if fingerprint(a, 1000) != fingerprint(b, 1000) {
		t.Fatal("one schedule gave two fingerprints")
	}
	c := schedule(8, "peak", peakRate, 3*time.Second, newPopularity(8, 5000, zipfSkew))
	if fingerprint(a, 1000) == fingerprint(c, 1000) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	// A longer run extends the schedule without changing its start.
	long := schedule(7, "peak", peakRate, 6*time.Second, pop)
	if !reflect.DeepEqual(long[:len(a)], a) {
		t.Error("run length changed the schedule's prefix")
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("arrival %d scheduled before arrival %d", i, i-1)
		}
	}
}

func TestScheduleRateAndPopularity(t *testing.T) {
	const n = 5000
	pop := newPopularity(3, n, zipfSkew)
	seen := map[tag.NodeID]bool{}
	for _, v := range pop.nodes {
		if v < 0 || int(v) >= n || seen[v] {
			t.Fatalf("popularity order is not a permutation: %d", v)
		}
		seen[v] = true
	}
	arr := schedule(3, "nominal", nominalRate, 20*time.Second, pop)
	want := nominalRate * 20
	if got := float64(len(arr)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals over 20s at %v/s, want about %v", got, nominalRate, want)
	}
	count := map[tag.NodeID]int{}
	tenants := map[string]bool{}
	for _, a := range arr {
		count[a.node]++
		tenants[a.tenant] = true
	}
	if len(tenants) != serveTenants {
		t.Errorf("%d tenants sent, want %d", len(tenants), serveTenants)
	}
	// Under Zipf(0.6) rank 1 is drawn (1000/1)^0.6 ≈ 63 times as often
	// as rank 1000.
	head, tail := count[pop.nodes[0]], 0
	for _, v := range pop.nodes[900:1100] {
		tail += count[v]
	}
	if float64(head) < 10*float64(tail)/200 {
		t.Errorf("rank 1 drawn %d times, ranks 900-1100 %d times in all: not Zipf-skewed", head, tail)
	}
	ranks := make([]int, 0, len(count))
	for _, c := range count {
		ranks = append(ranks, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ranks)))
	if ranks[0] != head {
		t.Errorf("the most drawn node is drawn %d times, rank 1 %d", ranks[0], head)
	}
}

func TestStrictDecode(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"node":3,"category":"A","tenant":"t"}`:        true,
		`{"node":3,"category":"A","tenant":"t"}` + "\n": true,
		`{"node":3,"category":"A","extra":1}`:           false,
		`{"node":3,"category":"A"}{"node":4}`:           false,
		`{"node":"3"}`:                                  false,
		``:                                              false,
	} {
		var v struct {
			Node     int    `json:"node"`
			Category string `json:"category"`
			Tenant   string `json:"tenant"`
		}
		if err := strictDecode([]byte(body), &v); (err == nil) != ok {
			t.Errorf("strictDecode(%q) = %v, want ok=%v", body, err, ok)
		}
	}
}

func TestRecordedSeeds(t *testing.T) {
	for _, w := range []string{batchCold.name, batchWarm.name, serveZipf} {
		for _, seed := range []uint64{1, 2} {
			rec, ok := recordedFor(w, seed)
			if !ok {
				t.Errorf("%s seed %d is not recorded", w, seed)
			}
			if w == serveZipf && rec.Schedule == "" || w != serveZipf && rec.Tokens == 0 {
				t.Errorf("%s seed %d: empty record %+v", w, seed, rec)
			}
		}
	}
	if _, ok := recordedFor(batchCold.name, 3); ok {
		t.Error("seed 3 is recorded")
	}
}
