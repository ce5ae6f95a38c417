package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// goldenAnalyzePath holds the byte-exact response bodies and cache keys
// of a fixed set of analyze requests. Regenerate it with
//
//	FSSERVE_UPDATE_GOLDEN=1 go test -run TestAnalyzeGoldenBytes ./internal/service/
//
// only for a change that is meant to alter analyze responses; such a
// change must also bump the "analyze/v2" cache-key version, because
// persisted snapshots and peer caches hold bodies under the old keys.
const goldenAnalyzePath = "testdata/analyze_golden.json"

type goldenAnalyze struct {
	Name        string          `json:"name"`
	Path        string          `json:"path"`
	Extrapolate bool            `json:"extrapolate,omitempty"`
	Request     json.RawMessage `json:"request"`
	// Key is the content address of an analyze request (empty for batch).
	Key    string `json:"key,omitempty"`
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// goldenAnalyzeCases covers the response fields an analyze evaluation
// fills: FS answer, Equation 1 total, victims, hot lines, the chunk
// recommendation, extrapolation, both counting modes, every machine, and
// a batch sweep.
func goldenAnalyzeCases(t *testing.T) []goldenAnalyze {
	acc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "accumulators.c"))
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(name string, extrap bool, req AnalyzeRequest) goldenAnalyze {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return goldenAnalyze{Name: name, Path: "/v1/analyze", Extrapolate: extrap, Request: b}
	}
	return []goldenAnalyze{
		analyze("victim-recommend", false, AnalyzeRequest{Source: victimSrc, Recommend: true}),
		analyze("victim-hotlines", false, AnalyzeRequest{Source: victimSrc, HotLines: true}),
		analyze("accumulators-hotlines-recommend", false, AnalyzeRequest{Source: string(acc), HotLines: true, Recommend: true}),
		analyze("accumulators-smalltest-mesi", false, AnalyzeRequest{Source: string(acc), Machine: "smalltest", MESI: true}),
		analyze("heat-8-c1-hotlines", false, AnalyzeRequest{Kernel: "heat", Threads: 8, Chunk: 1, HotLines: true}),
		analyze("dft-48-c1-extrapolated", true, AnalyzeRequest{Kernel: "dft", Threads: 48, Chunk: 1}),
		analyze("dft-48-c1-extrapolate-hotlines", true, AnalyzeRequest{Kernel: "dft", Threads: 48, Chunk: 1, HotLines: true}),
		analyze("linreg-8-c1-recommend", false, AnalyzeRequest{Kernel: "linreg", Threads: 8, Chunk: 1, Recommend: true}),
		analyze("linreg-modern16-block", false, AnalyzeRequest{Kernel: "linreg", Machine: "modern16"}),
		analyze("dft-8-c4-mesi-hotlines", false, AnalyzeRequest{Kernel: "dft", Threads: 8, Chunk: 4, MESI: true, HotLines: true}),
		{Name: "batch-linreg-chunks", Path: "/v1/analyze/batch",
			Request: json.RawMessage(`{"template":{"kernel":"linreg","threads":8,"hot_lines":true},"chunks":[1,8]}`)},
	}
}

// TestAnalyzeGoldenBytes pins analyze responses byte for byte, and the
// cache key each request resolves to: a cached or snapshotted body must
// equal what a fresh evaluation of its key returns today.
func TestAnalyzeGoldenBytes(t *testing.T) {
	servers := map[bool]*Server{
		false: newTestServer(t, Config{}),
		true:  newTestServer(t, Config{Extrapolate: true}),
	}
	got := goldenAnalyzeCases(t)
	for i := range got {
		g := &got[i]
		s := servers[g.Extrapolate]
		if g.Path == "/v1/analyze" {
			var req AnalyzeRequest
			if err := json.Unmarshal(g.Request, &req); err != nil {
				t.Fatal(err)
			}
			rr, err := s.resolve(req)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			g.Key = rr.key
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", g.Path, bytes.NewReader(g.Request)))
		g.Status, g.Body = w.Code, w.Body.String()
	}

	if os.Getenv("FSSERVE_UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAnalyzePath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenAnalyzePath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenAnalyze
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test builds %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		var req bytes.Buffer
		if err := json.Compact(&req, w.Request); err != nil {
			t.Fatal(err)
		}
		if w.Name != g.Name || !bytes.Equal(req.Bytes(), g.Request) {
			t.Errorf("case %d: golden %s %s, test builds %s %s", i, w.Name, w.Request, g.Name, g.Request)
			continue
		}
		if g.Status != 200 || w.Status != 200 {
			t.Errorf("%s: status %d, golden %d", g.Name, g.Status, w.Status)
		}
		if g.Key != w.Key {
			t.Errorf("%s: cache key %s, golden %s", g.Name, g.Key, w.Key)
		}
		if g.Body != w.Body {
			t.Errorf("%s: body differs from golden\n got: %s\nwant: %s", g.Name, g.Body, w.Body)
		}
	}
}
