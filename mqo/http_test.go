package mqo

import (
	"net/http/httptest"
	"testing"
)

// TestOptimizeOverHTTP runs the full prune+boost pipeline against the
// simulator served over a real network boundary — the deployment shape
// of the paper's system — and checks it agrees with in-process
// execution.
func TestOptimizeOverHTTP(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 10, 60, 4, 8)

	srv := httptest.NewServer(NewSimHandler(NewSim(GPT35(), g, 8)))
	defer srv.Close()
	remote, err := NewHTTPPredictor(HTTPConfig{BaseURL: srv.URL, Model: "sim-gpt-3.5"})
	if err != nil {
		t.Fatal(err)
	}

	overHTTP, err := Optimize(w, KHopRandom{K: 1}, remote, Options{Prune: true, Tau: 0.2, Boost: true})
	if err != nil {
		t.Fatalf("Optimize over HTTP: %v", err)
	}

	w2 := NewWorkload(g, 10, 60, 4, 8)
	local, err := Optimize(w2, KHopRandom{K: 1}, NewSim(GPT35(), g, 8),
		Options{Prune: true, Tau: 0.2, Boost: true})
	if err != nil {
		t.Fatalf("Optimize in process: %v", err)
	}

	if overHTTP.Accuracy != local.Accuracy {
		t.Errorf("accuracy over HTTP %.4f != local %.4f", overHTTP.Accuracy, local.Accuracy)
	}
	for v, c := range local.Results.Pred {
		if overHTTP.Results.Pred[v] != c {
			t.Fatalf("node %d predicted %q over HTTP, %q locally", v, overHTTP.Results.Pred[v], c)
		}
	}
	if remote.Meter().Queries() != len(w.Queries)+overHTTP.CalibrationQueries {
		t.Errorf("client meter %d queries, want %d",
			remote.Meter().Queries(), len(w.Queries)+overHTTP.CalibrationQueries)
	}
}
