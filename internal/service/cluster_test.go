package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// clusterNode is one in-process fsserve node on a real listener.
type clusterNode struct {
	svc  *Server
	hs   *http.Server
	addr string
}

// startServiceCluster binds n loopback listeners first (so every node
// knows the full member list before construction), then starts one
// clustered Server per listener. The default config pins the hedge delay
// high so no test sees a surprise hedge; mutate customizes per node.
func startServiceCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cfg := Config{
			Logger: discardLogger(),
			Cluster: &ClusterConfig{
				Advertise:  addrs[i],
				Peers:      addrs,
				HedgeDelay: 30 * time.Second,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		svc := New(cfg)
		hs := &http.Server{Handler: svc.Handler()}
		go hs.Serve(lns[i])
		nodes[i] = &clusterNode{svc: svc, hs: hs, addr: addrs[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.hs.Close()
			nd.svc.Close()
		}
	})
	return nodes
}

// postNode POSTs body to a node over real HTTP and returns status,
// headers and body.
func postNode(t *testing.T, addr, path string, body any, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, rb
}

// requestOwnedBy searches chunk sizes for an analyze request whose
// content key ranks want as primary among members. The chunk only
// perturbs the cache key (the source's schedule pragma wins at
// evaluation), so any hit is a valid probe request.
func requestOwnedBy(t *testing.T, s *Server, members []string, want string) AnalyzeRequest {
	t.Helper()
	for chunk := int64(0); chunk < 512; chunk++ {
		req := AnalyzeRequest{Source: victimSrc, Chunk: chunk}
		rr, err := s.resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		if cluster.Rank(members, rr.key, 1)[0] == want {
			return req
		}
	}
	t.Fatalf("no request found with primary %s among %v", want, members)
	return AnalyzeRequest{}
}

// TestClusterForwardToOwner pins the ownership contract on a 2-node
// cluster: the non-owner proxies to the primary, serves byte-identical
// bytes, caches the forwarded copy locally, and never evaluates.
func TestClusterForwardToOwner(t *testing.T) {
	nodes := startServiceCluster(t, 2, nil)
	members := []string{nodes[0].addr, nodes[1].addr}
	req := requestOwnedBy(t, nodes[0].svc, members, nodes[0].addr)

	resp, fwd := postNode(t, nodes[1].addr, "/v1/analyze", req, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded status = %d: %s", resp.StatusCode, fwd)
	}
	if got := resp.Header.Get("X-Cache"); got != "forward" {
		t.Fatalf("X-Cache = %q, want forward", got)
	}
	resp2, direct := postNode(t, nodes[0].addr, "/v1/analyze", req, nil)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("owner X-Cache = %q, want hit (forward evaluated there)", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(fwd, direct) {
		t.Errorf("forwarded body differs from owner's:\n%s\nvs\n%s", fwd, direct)
	}
	if n := nodes[0].svc.Metrics().Evaluations.Value(); n != 1 {
		t.Errorf("owner evaluations = %d, want 1", n)
	}
	if n := nodes[1].svc.Metrics().Evaluations.Value(); n != 0 {
		t.Errorf("non-owner evaluations = %d, want 0", n)
	}

	// The forwarded copy was cached: the non-owner now serves it locally.
	resp3, _ := postNode(t, nodes[1].addr, "/v1/analyze", req, nil)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit (forwarded body cached)", got)
	}
}

// TestClusterMetricsHygiene pins that every fsserve_cluster_* metric is
// registered and rendered: all nine names appear in /metrics after one
// forwarded request, and the touched labeled families carry per-peer
// series rows.
func TestClusterMetricsHygiene(t *testing.T) {
	nodes := startServiceCluster(t, 2, nil)
	members := []string{nodes[0].addr, nodes[1].addr}
	req := requestOwnedBy(t, nodes[0].svc, members, nodes[0].addr)
	if resp, body := postNode(t, nodes[1].addr, "/v1/analyze", req, nil); resp.StatusCode != 200 {
		t.Fatalf("forward failed: %d %s", resp.StatusCode, body)
	}

	mresp, err := http.Get("http://" + nodes[1].addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	metrics := string(mb)
	for _, name := range []string{
		"fsserve_cluster_forwards_total",
		"fsserve_cluster_forward_seconds",
		"fsserve_cluster_peer_healthy",
		"fsserve_cluster_probes_total",
		"fsserve_cluster_fill_hits_total",
		"fsserve_cluster_fill_misses_total",
		"fsserve_cluster_fill_pushes_total",
		"fsserve_cluster_fill_dropped_total",
	} {
		if !strings.Contains(metrics, "# TYPE "+name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	wantRow := fmt.Sprintf("fsserve_cluster_forwards_total{peer=%q,outcome=\"ok\"} 1", nodes[0].addr)
	if !strings.Contains(metrics, wantRow) {
		t.Errorf("/metrics missing forwards series %q in:\n%s", wantRow, metrics)
	}
	if !strings.Contains(metrics, fmt.Sprintf("fsserve_cluster_peer_healthy{peer=%q} 1", nodes[0].addr)) {
		t.Errorf("/metrics missing peer_healthy series for %s", nodes[0].addr)
	}
	if !strings.Contains(metrics, "fsserve_cluster_forward_seconds_count 1") {
		t.Errorf("/metrics missing forward latency observation")
	}
}

// TestClusterOwnerDownDegrades pins degrade-to-local-closed-form: a
// forward whose owner is unreachable answers 200 with the closed-form
// fallback — never a 5xx — and counts the "owner-down" degradation.
func TestClusterOwnerDownDegrades(t *testing.T) {
	// A dead peer: bind a port, learn its address, close it again.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	svc := New(Config{
		Logger: discardLogger(),
		Cluster: &ClusterConfig{
			Advertise: addr,
			Peers:     []string{addr, deadAddr},
			// Slow probes: the dead peer must still be in the ring when
			// the request arrives, so the forward genuinely fails.
			ProbeInterval: time.Minute,
			HedgeDelay:    30 * time.Second,
		},
	})
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close(); svc.Close() })

	members := []string{addr, deadAddr}
	req := requestOwnedBy(t, svc, members, deadAddr)
	resp, body := postNode(t, addr, "/v1/analyze", req, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 (degraded, never 5xx): %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "degraded" {
		t.Errorf("X-Cache = %q, want degraded", got)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Degraded || ar.DegradedReason != "owner-down" || ar.ClosedForm == nil {
		t.Errorf("degraded=%v reason=%q closed_form=%v, want owner-down closed form",
			ar.Degraded, ar.DegradedReason, ar.ClosedForm)
	}
	if n := svc.Metrics().Degraded.With(endpointAnalyze, "owner-down").Value(); n != 1 {
		t.Errorf("degraded{analyze,owner-down} = %d, want 1", n)
	}
	if n := svc.Metrics().Evaluations.Value(); n != 0 {
		t.Errorf("evaluations = %d, want 0 (closed form only)", n)
	}
}

// TestPeerCacheEndpoints pins the internal mesh API: key validation,
// 404 on miss, 204 push, and the pushed bytes served back verbatim.
func TestPeerCacheEndpoints(t *testing.T) {
	nodes := startServiceCluster(t, 2, nil)
	addr := nodes[0].addr
	key := strings.Repeat("ab12", 16) // 64 hex chars

	if resp, _ := postNode(t, addr, "/v1/peer/cache?key=nothex", nil, nil); resp.StatusCode != 400 {
		t.Errorf("bad key POST status = %d, want 400", resp.StatusCode)
	}
	gresp, err := http.Get("http://" + addr + "/v1/peer/cache?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != 404 {
		t.Errorf("missing key GET status = %d, want 404", gresp.StatusCode)
	}

	payload := []byte(`{"pushed":true}`)
	preq, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/peer/cache?key="+key, bytes.NewReader(payload))
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != 204 {
		t.Fatalf("push status = %d, want 204", presp.StatusCode)
	}
	gresp2, err := http.Get("http://" + addr + "/v1/peer/cache?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp2.Body.Close()
	got, _ := io.ReadAll(gresp2.Body)
	if gresp2.StatusCode != 200 || !bytes.Equal(got, payload) {
		t.Errorf("round trip = %d %q, want 200 %q", gresp2.StatusCode, got, payload)
	}
}

// TestClusterPeerFill pins the fill path: a node evaluating a forwarded
// request (hop guard set, so it cannot re-forward) recovers the entry
// from a replica's cache instead of re-evaluating. Pushes are disabled
// so the copy can only have arrived via the fill lookup.
func TestClusterPeerFill(t *testing.T) {
	nodes := startServiceCluster(t, 2, func(i int, cfg *Config) {
		cfg.Cluster.PushQueue = -1
	})
	members := []string{nodes[0].addr, nodes[1].addr}
	req := requestOwnedBy(t, nodes[0].svc, members, nodes[0].addr)

	// Seed the owner's cache with a real evaluation.
	if resp, body := postNode(t, nodes[0].addr, "/v1/analyze", req, nil); resp.StatusCode != 200 {
		t.Fatalf("seed failed: %d %s", resp.StatusCode, body)
	}
	// Hit the other node with the hop guard set: it must serve locally,
	// and its local miss should be answered by the owner's cache.
	resp, body := postNode(t, nodes[1].addr, "/v1/analyze", req, map[string]string{headerForwarded: "1"})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "peer-fill" {
		t.Fatalf("X-Cache = %q, want peer-fill", got)
	}
	_, direct := postNode(t, nodes[0].addr, "/v1/analyze", req, nil)
	if !bytes.Equal(body, direct) {
		t.Error("peer-filled body differs from the owner's")
	}
	if n := nodes[1].svc.Metrics().Evaluations.Value(); n != 0 {
		t.Errorf("filled node evaluations = %d, want 0", n)
	}
	if n := nodes[1].svc.Metrics().ClusterFillHits.Value(); n != 1 {
		t.Errorf("fill hits = %d, want 1", n)
	}
}

// TestClusterPushWarmsReplica pins the async push: after the primary
// evaluates, the replica receives the entry without ever forwarding, so
// a later request to the replica is a local hit.
func TestClusterPushWarmsReplica(t *testing.T) {
	nodes := startServiceCluster(t, 2, nil)
	members := []string{nodes[0].addr, nodes[1].addr}
	req := requestOwnedBy(t, nodes[0].svc, members, nodes[0].addr)

	if resp, body := postNode(t, nodes[0].addr, "/v1/analyze", req, nil); resp.StatusCode != 200 {
		t.Fatalf("evaluate failed: %d %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].svc.cache.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("push never landed on the replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The pusher counts a push only after it reads the replica's 204,
	// which can trail the replica's cache write.
	for nodes[0].svc.Metrics().ClusterFillPushes.Value() == 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := nodes[0].svc.Metrics().ClusterFillPushes.Value(); n != 1 {
		t.Errorf("pushes = %d, want 1", n)
	}
	resp, _ := postNode(t, nodes[1].addr, "/v1/analyze", req, nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("replica X-Cache = %q, want hit (entry was pushed)", got)
	}
	if n := nodes[1].svc.Metrics().Evaluations.Value(); n != 0 {
		t.Errorf("replica evaluations = %d, want 0", n)
	}
}

// TestClusterHedgedForward pins the hedged replica read: when the
// primary target stalls past the pinned hedge delay, the backup request
// to the second target answers and wins.
func TestClusterHedgedForward(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("X-Cache", "hit")
		io.WriteString(w, `{"from":"slow"}`)
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", "hit")
		io.WriteString(w, `{"from":"fast"}`)
	}))
	defer fast.Close()
	slowAddr := strings.TrimPrefix(slow.URL, "http://")
	fastAddr := strings.TrimPrefix(fast.URL, "http://")

	svc := New(Config{
		Logger: discardLogger(),
		Cluster: &ClusterConfig{
			Advertise:     "self.invalid:1",
			Peers:         []string{slowAddr, fastAddr},
			ProbeInterval: time.Minute,
			HedgeDelay:    10 * time.Millisecond,
		},
	})
	t.Cleanup(func() { svc.Close() })

	rt := &clusterRoute{path: "/v1/analyze", payload: []byte(`{}`)}
	body, cacheable, err := svc.cluster.forward(context.Background(), rt, []string{slowAddr, fastAddr})
	if err != nil {
		t.Fatal(err)
	}
	if !cacheable || string(body) != `{"from":"fast"}` {
		t.Fatalf("hedged forward = %q cacheable=%v, want the fast replica's body", body, cacheable)
	}
	if n := svc.Metrics().ClusterForwards.With(fastAddr, "hedged").Value(); n != 1 {
		t.Errorf("forwards{%s,hedged} = %d, want 1", fastAddr, n)
	}
}

// TestClusterReadyzExposesPeers pins the ops surface: /readyz reports
// the membership view with per-peer states.
func TestClusterReadyzExposesPeers(t *testing.T) {
	nodes := startServiceCluster(t, 2, nil)
	resp, err := http.Get("http://" + nodes[0].addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rz ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	if rz.Cluster == nil {
		t.Fatal("readyz has no cluster section")
	}
	if rz.Cluster.Self != nodes[0].addr {
		t.Errorf("readyz self = %q, want %q", rz.Cluster.Self, nodes[0].addr)
	}
	if st := rz.Cluster.Peers[nodes[1].addr]; st != "healthy" {
		t.Errorf("peer state = %q, want healthy", st)
	}
}
