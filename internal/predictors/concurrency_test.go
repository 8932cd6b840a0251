package predictors

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/tag"
)

// TestSNSConcurrentFirstSelect: plan execution calls Select from several
// workers at once, so the first SNS selections on a fresh Context race
// to build the similarity index. They must build exactly one and agree
// with a serial run; `go test -race` flags an unguarded lazy build.
func TestSNSConcurrentFirstSelect(t *testing.T) {
	ctx, split := testContext(t, 400, 21)
	nodes := split.Query[:40]
	want := make([][]Selected, len(nodes))
	serial, _ := testContext(t, 400, 21)
	for i, v := range nodes {
		want[i] = SNS{}.Select(serial, v)
	}

	const goroutines = 8
	got := make([][][]Selected, goroutines)
	indexes := make([]*Similarity, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, v := range nodes {
				got[w] = append(got[w], SNS{}.Select(ctx, v))
			}
			indexes[w] = ctx.similarity()
		}()
	}
	close(start)
	wg.Wait()
	for w := range got {
		if indexes[w] != indexes[0] {
			t.Fatalf("goroutine %d saw a different similarity index: more than one was built", w)
		}
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("goroutine %d selected differently from a serial run", w)
		}
	}
}

// TestLabelConflictsAllocationFree: boosting calls LabelConflicts on
// every pending query's selection in every relaxation step, so it must
// not allocate at any M. The selection holds more distinct labels than
// a small map keeps off the heap.
func TestLabelConflictsAllocationFree(t *testing.T) {
	var sel []Selected
	for i := 0; i < 16; i++ {
		s := Selected{ID: tag.NodeID(i)}
		if i%4 != 3 {
			s.Label = "class-" + strconv.Itoa(i%13)
		}
		sel = append(sel, s)
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() { n = LabelConflicts(sel) }); allocs != 0 {
		t.Fatalf("LabelConflicts allocates %v times per call", allocs)
	}
	if n != 10 {
		t.Fatalf("LabelConflicts = %d, want 10", n)
	}
}
