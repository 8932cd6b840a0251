package mqo

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServeFacade drives the public serving surface end to end: build
// the tier from a workload with NewServer, query it both directly and
// over HTTP, and check the answer agrees with batch-shaped Optimize on
// the same workload.
func TestServeFacade(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 21, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 15, 50, 4, 21)
	m := SNS{}
	opt := Options{Workers: 4}

	s, err := NewServer(w, m, NewSim(GPT35(), g, 21), opt, ServeConfig{
		Window: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	node := w.Queries[0]
	res, err := s.Submit(context.Background(), "team-a", node)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Optimize(w, m, NewSim(GPT35(), g, 21), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.Results.Pred[node]; res.Category != want {
		t.Fatalf("serve answer %q differs from Optimize answer %q", res.Category, want)
	}

	ts := httptest.NewServer(ServeHandler(s))
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+ServeQueryPath,
		strings.NewReader(`{"node": `+jsonInt(int(node))+`}`))
	req.Header.Set("Authorization", "Bearer key-team-b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP status = %d", resp.StatusCode)
	}
	var body struct {
		Category  string `json:"category"`
		Tenant    string `json:"tenant"`
		Coalesced bool   `json:"coalesced"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Category != res.Category {
		t.Fatalf("HTTP answer %q differs from direct answer %q", body.Category, res.Category)
	}
	if body.Tenant != "key-team-b" {
		t.Fatalf("tenant = %q, want bearer key", body.Tenant)
	}
	if !body.Coalesced {
		t.Fatal("repeat query must be served from the coalescing memory")
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}
