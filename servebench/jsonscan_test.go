package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestScanConnected(t *testing.T) {
	b, _ := json.Marshal(serve.ConnectedResponse{Connected: []bool{true, false, true}, Faults: 2, CacheHit: true, Generation: 7})
	got, gen, approx, err := scanConnected(b, nil)
	if err != nil || gen != 7 || approx || !slices.Equal(got, []bool{true, false, true}) {
		t.Fatalf("scanConnected(%s) = %v gen=%d approx=%v err=%v", b, got, gen, approx, err)
	}
	b, _ = json.Marshal(serve.VConnectedResponse{Connected: []bool{false}, Confidence: serve.ConfidenceApprox, Generation: 1})
	if _, _, approx, err := scanConnected(b, nil); err != nil || !approx {
		t.Fatalf("approx answer not flagged: %s", b)
	}
	if _, _, _, err := scanConnected([]byte(`{"error":"boom"}`), nil); err == nil {
		t.Fatal("error body accepted")
	}
}

func TestScanRoutes(t *testing.T) {
	want := serve.RouteResponse{
		Routes:     []serve.RouteLeg{{Reachable: true, Path: []int{3, 14, 15}}, {}, {Reachable: true, Path: []int{9}}},
		Confidence: serve.ConfidenceExact,
		Generation: 12,
	}
	b, _ := json.Marshal(want)
	var r routeLegs
	gen, approx, err := scanRoutes(b, &r)
	if err != nil || gen != 12 || approx {
		t.Fatalf("scanRoutes(%s): gen=%d approx=%v err=%v", b, gen, approx, err)
	}
	if !slices.Equal(r.reach, []bool{true, false, true}) {
		t.Fatalf("reach = %v", r.reach)
	}
	for i, leg := range want.Routes {
		if !slices.Equal(r.path(i), leg.Path) {
			t.Errorf("leg %d path = %v, want %v", i, r.path(i), leg.Path)
		}
	}
}

// TestRawHTTP covers both response framings net/http uses: a short body
// with Content-Length and a long one sent chunked.
func TestRawHTTP(t *testing.T) {
	long := strings.Repeat("x", 10000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		if r.URL.Path == "/long" {
			w.Write([]byte(long[:5000]))
			w.(http.Flusher).Flush()
			w.Write([]byte(long[5000:]))
			return
		}
		w.Write(buf.Bytes())
	}))
	defer srv.Close()
	h, err := dialHTTP(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for range 3 { // the connection is reused
		status, body, err := h.post("/echo", []byte(`{"a":1}`))
		if err != nil || status != 200 || string(body) != `{"a":1}` {
			t.Fatalf("echo: %d %q %v", status, body, err)
		}
		status, body, err = h.post("/long", nil)
		if err != nil || status != 200 || string(body) != long {
			t.Fatalf("chunked: %d len=%d %v", status, len(body), err)
		}
	}
}
