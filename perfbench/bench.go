package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
)

// maxReported caps the failed requests a run describes on stderr.
const maxReported = 10

// setupRepeats is how many times a run sets up from scratch; setup_s
// is the median, and the last fleet serves the timed phase.
const setupRepeats = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host describes the machine a run measured.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostInfo() host {
	h := host{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// result is everything one run measured and checked.
type result struct {
	attempted, failed int
	correct           bool
	endToEnd          map[string]metric
	perLayer          map[string]metric
	host              host

	// Gate inputs for the benchmark's own test: whether the workload
	// replays a hot set, X-Cache hits on timed requests, and /metrics
	// deltas over the timed phase.
	hot            bool
	timedCacheHits int
	delta          map[string]float64
}

// execute performs one run: set up (repeatedly), drive the timed
// sequence, check every response against the library, and, when
// traced, replay the sequence into each layer.
func execute(ctx context.Context, w workload, seed int64, seconds int, traced bool, diag io.Writer) (*result, error) {
	res := &result{host: hostInfo(), endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
	var (
		in      *inputs
		f       *fleet
		clients []*client
		bodyOf  = map[int][]byte{}
		setups  []float64
	)
	closeAll := func() error {
		for _, c := range clients {
			c.close()
		}
		if f == nil {
			return nil
		}
		err := f.close()
		f = nil
		return err
	}
	defer closeAll()
	for rep := 0; rep < setupRepeats; rep++ {
		if err := closeAll(); err != nil {
			return nil, fmt.Errorf("stopping fleet: %w", err)
		}
		start := time.Now()
		in = w.gen(seed, w.timedCount(seconds))
		var err error
		if f, err = startFleet(); err != nil {
			return nil, err
		}
		clients = clients[:0]
		for c := 0; c < w.clients; c++ {
			clients = append(clients, newClient(f.nodes[c].addr))
		}
		for _, seq := range [][]int{in.fill, in.warm} {
			outs, bodies, _ := drive(clients, in.keys, seq, false)
			for i, o := range outs {
				if o.failed || o.status != 200 {
					return nil, fmt.Errorf("set-up request %d (%s): status %d, transport error %t", i, in.keys[seq[i]].path, o.status, o.failed)
				}
			}
			for id, b := range bodies {
				bodyOf[int(id.key)] = b
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Start every timed phase from a collected heap with free memory
	// returned to the system and a fresh resident-set high-water mark,
	// so set-up garbage decides neither when the first collections land
	// nor the peak: a set-up evaluation's transient memory depends on
	// which sizes the seed drew, the timed phase's peak on the serving.
	debug.FreeOSMemory()
	setupRSS, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	phase := time.Now()

	before, err := f.scrape()
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	cpu0 := cpuTime()
	hot := len(in.fill) > 0
	res.hot = hot
	outs, bodies, verdicts := drive(clients, in.keys, in.timed, !hot)
	cpu := cpuTime() - cpu0
	// Read the peak before the checks below, whose library replays
	// would otherwise set it.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	after, err := f.scrape()
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	res.delta = map[string]float64{}
	for name, v := range after {
		res.delta[name] = v - before[name]
	}
	// References: the library's verdict for every key a timed request
	// used. A traced cold run computes them in the replay it times,
	// which sends the timed sequence into the library with as many
	// concurrent callers as the workload has clients. service-hot's
	// timed phase evaluates nothing, so its trace replays nothing.
	var rp *replayed
	switch {
	case traced && !hot:
		rp, err = replayAll(ctx, in.keys, in.timed, w.clients, true)
	case hot:
		rp, err = replayAll(ctx, in.keys, in.fill, 2, false)
	default:
		rp, err = replayAll(ctx, in.keys, in.timed, 2, false)
	}
	if err != nil {
		return nil, err
	}
	refs := rp.refs

	// A timed reply is correct when its verdict, decoded in the client
	// (cold workloads) or here from its distinct body (service-hot),
	// matches the library's.
	bodyVerdict := map[bodyID]string{}
	for id, b := range bodies {
		bodyVerdict[id] = verdictOrError(in.keys[id.key].path, b)
	}
	good := make([]bool, len(outs))
	for i, o := range outs {
		if o.hit {
			res.timedCacheHits++
		}
		k := in.timed[i]
		got := bodyVerdict[o.body]
		if verdicts != nil {
			got = verdicts[i]
		}
		var why string
		switch {
		case o.failed || o.status != 200:
			why = fmt.Sprintf("status %d, transport error %t", o.status, o.failed)
		case got != refs[k]:
			why = fmt.Sprintf("response %q, library %q", got, refs[k])
		default:
			good[i] = true
			continue
		}
		res.failed++
		if res.failed <= maxReported {
			fmt.Fprintf(diag, "perfbench: timed request %d (%s): %s\n", i, in.keys[k].path, why)
		}
	}
	if res.failed > maxReported {
		fmt.Fprintf(diag, "perfbench: ... %d failed timed requests in all\n", res.failed)
	}
	res.attempted = len(outs)
	fmt.Fprintf(diag, "perfbench: set-ups %.3v s, peak RSS after set-up %.1f MiB, timed phase and checks %.3v s\n",
		setups, setupRSS, time.Since(phase).Seconds())
	pinned, err := checkPinned(ctx, w, diag)
	if err != nil {
		return nil, err
	}
	res.correct = res.failed == 0 && pinned

	for name, v := range windowed(outs, good) {
		res.endToEnd[name] = v
	}
	res.endToEnd["cpu_ms_per_req"] = metric{cpu.Seconds() * 1e3 / float64(res.attempted), "ms"}
	res.endToEnd["peak_rss_mb"] = metric{rss, "MiB"}
	res.endToEnd["setup_s"] = metric{median(setups), "s"}

	res.perLayer["error_rate"] = metric{float64(res.failed) / float64(res.attempted), "ratio"}
	addDeltaMetrics(res, len(outs))
	if traced {
		if hot {
			rp = &replayed{libs: make([]time.Duration, len(outs))}
		} else {
			// The cold replies were not kept; the cache replay stores
			// slices of their sizes over one shared buffer instead.
			var largest int32
			for _, o := range outs {
				largest = max(largest, o.body.size)
			}
			shared := make([]byte, largest)
			for _, o := range outs {
				bodyOf[int(o.body.key)] = shared[:o.body.size]
			}
		}
		if err := traceMetrics(res, rp, outs, in, f, bodyOf); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Throughput and latency are reported per window of completions and
// then as the median over the windows, so one scheduling hiccup moves
// one window rather than the run. Throughput, p50 and p95 use windows
// of at least shortWindow replies, which keep twelve samples beyond
// their p95; p99 uses windows of at least windowRequests replies,
// which keep ten samples beyond it.
const (
	maxWindows     = 10
	shortWindow    = 250
	windowRequests = 1000
)

// windowed computes the throughput and latency metrics of a timed
// sequence. good marks the replies that passed every check.
func windowed(outs []outcome, good []bool) map[string]metric {
	order := make([]int, len(outs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return outs[order[a]].done < outs[order[b]].done })
	var rps, p50, p95, p99 []float64
	var prev time.Duration
	for _, seg := range windows(order, shortWindow) {
		end := outs[seg[len(seg)-1]].done
		correct := 0
		for _, i := range seg {
			if good[i] {
				correct++
			}
		}
		lats := latencies(outs, seg)
		rps = append(rps, float64(correct)/(end-prev).Seconds())
		p50 = append(p50, percentile(lats, 0.50))
		p95 = append(p95, percentile(lats, 0.95))
		prev = end
	}
	m := map[string]metric{
		"throughput_rps": {median(rps), "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p95_ms": {median(p95), "ms"},
	}
	if len(outs) >= windowRequests {
		for _, seg := range windows(order, windowRequests) {
			p99 = append(p99, percentile(latencies(outs, seg), 0.99))
		}
		m["latency_p99_ms"] = metric{median(p99), "ms"}
	}
	return m
}

// windows splits order into at most maxWindows consecutive, near-equal
// segments of at least size entries each, or one segment if it is
// shorter than size.
func windows(order []int, size int) [][]int {
	k := min(max(len(order)/size, 1), maxWindows)
	segs := make([][]int, k)
	for w := range segs {
		segs[w] = order[w*len(order)/k : (w+1)*len(order)/k]
	}
	return segs
}

// latencies returns the sorted latencies, in milliseconds, of the
// replies in seg.
func latencies(outs []outcome, seg []int) []float64 {
	lats := make([]float64, len(seg))
	for j, i := range seg {
		lats[j] = float64(outs[i].lat.Nanoseconds()) / 1e6
	}
	sort.Float64s(lats)
	return lats
}

// replayed is the outcome of replaying a request sequence into the
// library.
type replayed struct {
	refs map[int]string // verdict per key
	libs []time.Duration
	sp   spans
	// busy is the callers' summed wall time, the denominator of the
	// tracing overhead.
	busy time.Duration
}

// replayAll sends seq (indices into keys) into the library with the
// given number of concurrent callers, each taking the next request when
// its previous one is done, as the clients do over HTTP.
func replayAll(ctx context.Context, keys []*request, seq []int, callers int, full bool) (*replayed, error) {
	rp := &replayed{refs: map[int]string{}, libs: make([]time.Duration, len(seq))}
	var (
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sp spans
			start := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					break
				}
				v, lib, err := replay(ctx, keys[seq[i]], &sp, full)
				rp.libs[i] = lib
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("library replay of key %d: %w", seq[i], err)
				}
				rp.refs[seq[i]] = v
				mu.Unlock()
			}
			busy := time.Since(start)
			mu.Lock()
			rp.sp.add(&sp)
			rp.busy += busy
			mu.Unlock()
		}()
	}
	wg.Wait()
	return rp, firstErr
}

// addDeltaMetrics reports the /metrics deltas of the timed phase. A
// series the service no longer exports leaves its metric absent.
func addDeltaMetrics(res *result, requests int) {
	d := res.delta
	has := func(names ...string) bool {
		for _, n := range names {
			if _, ok := res.delta[n]; !ok {
				return false
			}
		}
		return true
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	n := float64(requests)
	if has("fsserve_cache_hits_total", "fsserve_cache_misses_total") {
		h := d["fsserve_cache_hits_total"]
		res.perLayer["cache.hit_ratio"] = metric{ratio(h, h+d["fsserve_cache_misses_total"]), "ratio"}
	}
	if has("fsserve_cluster_forwards_total") {
		res.perLayer["cluster.forwarded_frac"] = metric{d["fsserve_cluster_forwards_total"] / n, "ratio"}
	}
	if has("fsserve_cluster_fill_hits_total", "fsserve_cluster_fill_misses_total") {
		h := d["fsserve_cluster_fill_hits_total"]
		res.perLayer["cluster.fill_hit_ratio"] = metric{ratio(h, h+d["fsserve_cluster_fill_misses_total"]), "ratio"}
	}
	if has("fsserve_evaluations_total") {
		res.perLayer["service.evals_per_request"] = metric{d["fsserve_evaluations_total"] / n, "evals/req"}
	}
	if has("fsserve_degraded_total") {
		res.perLayer["service.degraded"] = metric{d["fsserve_degraded_total"], "count"}
	}
	if has("fsserve_queue_rejects_total") {
		res.perLayer["admission.queue_rejects"] = metric{d["fsserve_queue_rejects_total"], "count"}
	}
}

// serviceCacheEntries is the service's default result-cache capacity.
const serviceCacheEntries = 512

// traceMetrics turns the replay into per-layer metrics: per-request layer
// times, shares of the untraced request wall, exact model counts, the
// cache and rendezvous micro-costs on the workload's own keys, and the
// local-versus-forwarded hit round trips.
func traceMetrics(res *result, rp *replayed, outs []outcome, in *inputs, f *fleet, bodyOf map[int][]byte) error {
	sp := &rp.sp
	n := float64(len(in.timed))
	perReq := func(l layer, unit float64) float64 { return float64(sp.ns[l]) / n / unit }
	perCall := func(v int64, l layer) float64 {
		if sp.calls[l] == 0 {
			return 0
		}
		return float64(v) / float64(sp.calls[l])
	}
	pl := res.perLayer
	pl["fsmodel.analyze_ms"] = metric{perReq(layerFSModel, 1e6), "ms"}
	pl["accessplan.compile_us"] = metric{perReq(layerCompile, 1e3), "us"}
	pl["minic.parse_us"] = metric{perReq(layerParse, 1e3), "us"}
	pl["loopir.lower_us"] = metric{perReq(layerLower, 1e3), "us"}
	pl["minic.print_us"] = metric{perReq(layerPrint, 1e3), "us"}
	pl["costmodel.estimate_us"] = metric{perReq(layerEstimate, 1e3), "us"}
	pl["analysis.analyze_us"] = metric{perReq(layerAnalysis, 1e3), "us"}
	pl["tuner.tune_ms"] = metric{perReq(layerTune, 1e6), "ms"}
	nsPerAccess := 0.0
	if sp.fsAccesses > 0 {
		nsPerAccess = float64(sp.ns[layerFSModel]) / float64(sp.fsAccesses)
	}
	pl["fsmodel.ns_per_access"] = metric{nsPerAccess, "ns"}
	pl["fsmodel.accesses"] = metric{perCall(sp.fsAccesses, layerFSModel), "count"}
	pl["fsmodel.steps"] = metric{perCall(sp.fsSteps, layerFSModel), "count"}
	pl["fsmodel.alloc_mb"] = metric{perCall(sp.fsAllocBytes, layerFSModel) / (1 << 20), "MiB"}
	pl["tuner.candidates"] = metric{perCall(sp.tuneCandidates, layerTune), "count"}
	pl["tuner.verified"] = metric{perCall(sp.tuneVerified, layerTune), "count"}

	var wallSum, overheadSum float64
	for i, o := range outs {
		wallSum += o.lat.Seconds()
		overheadSum += (o.lat - rp.libs[i]).Seconds()
	}
	pl["service.overhead_ms"] = metric{overheadSum / n * 1e3, "ms"}
	share := func(ls ...layer) float64 {
		var s int64
		for _, l := range ls {
			s += sp.ns[l] - sp.nested[l]
		}
		return float64(s) / 1e9 / wallSum
	}
	// Shares count only calls the service makes directly; the tuner's
	// own front end and the compile inside fsmodel are nested.
	pl["share.fsmodel"] = metric{share(layerFSModel), "ratio"}
	pl["share.frontend"] = metric{share(layerParse, layerLower), "ratio"}
	pl["share.analysis_tuner"] = metric{share(layerAnalysis, layerTune, layerEstimate), "ratio"}
	pl["share.service"] = metric{overheadSum / wallSum, "ratio"}

	var spanned int64
	for _, v := range sp.ns {
		spanned += v
	}
	overhead := 0.0
	if rp.busy > 0 {
		overhead = 1 - float64(spanned)/float64(rp.busy.Nanoseconds())
	}
	pl["trace.overhead_frac"] = metric{overhead, "ratio"}

	get, put, rank := cacheAndRank(in, f, bodyOf)
	pl["cache.get_ns"] = metric{get, "ns"}
	pl["cache.put_ns"] = metric{put, "ns"}
	pl["cluster.rank_ns"] = metric{rank, "ns"}

	local, fwd, err := probeHits(in, f)
	if err != nil {
		return err
	}
	if len(local) > 0 {
		pl["service.local_hit_ms"] = metric{median(local), "ms"}
	}
	if len(fwd) > 0 {
		pl["cluster.forwarded_hit_ms"] = metric{median(fwd), "ms"}
	}
	return nil
}

// cacheAndRank times cache.BytesLRU and cluster.Rank on the workload's
// keys and response bodies: for the cold workloads a lookup miss and an
// insert per timed key into a cache of the service's default size, for
// service-hot the hot-set inserts and one hit per timed request.
func cacheAndRank(in *inputs, f *fleet, bodyOf map[int][]byte) (getNS, putNS, rankNS float64) {
	lru := cache.NewBytesLRU(serviceCacheEntries, nil)
	puts, gets := in.timed, in.timed
	if len(in.fill) > 0 {
		puts = in.fill
	}
	start := time.Now()
	if len(in.fill) == 0 {
		for _, k := range gets {
			lru.Get(in.keys[k].key)
		}
	}
	missNS := time.Since(start)
	start = time.Now()
	for _, k := range puts {
		lru.Add(in.keys[k].key, bodyOf[k])
	}
	putNS = float64(time.Since(start).Nanoseconds()) / float64(len(puts))
	if len(in.fill) == 0 {
		getNS = float64(missNS.Nanoseconds()) / float64(len(gets))
	} else {
		start = time.Now()
		for _, k := range gets {
			lru.Get(in.keys[k].key)
		}
		getNS = float64(time.Since(start).Nanoseconds()) / float64(len(gets))
	}
	members := make([]string, len(f.nodes))
	for i, nd := range f.nodes {
		members[i] = nd.addr
	}
	start = time.Now()
	for _, k := range in.timed {
		cluster.Rank(members, in.keys[k].key, 2)
	}
	rankNS = float64(time.Since(start).Nanoseconds()) / float64(len(in.timed))
	return getNS, putNS, rankNS
}

// probeKeys is how many keys the hit probes sample.
const probeKeys = 96

// probeHits measures cache-hit round trips after the timed phase. Each
// sampled key is first requested from entry node 0 (so its owners hold
// it), then from the forward-only last node, which answers a key it
// does not hold by forwarding to an owner, then from node 0 again,
// which now holds it. X-Cache tells which path served each probe.
func probeHits(in *inputs, f *fleet) (local, fwd []float64, err error) {
	keys := in.fill
	if len(keys) == 0 {
		keys = in.timed[max(0, len(in.timed)-probeKeys):]
	}
	entry, last := newClient(f.nodes[0].addr), newClient(f.nodes[len(f.nodes)-1].addr)
	defer entry.close()
	defer last.close()
	timed := func(c *client, r *request) (reply, float64, error) {
		start := time.Now()
		rep, err := c.post(r)
		return rep, float64(time.Since(start).Nanoseconds()) / 1e6, err
	}
	for _, k := range keys {
		r := in.keys[k]
		if _, _, err := timed(entry, r); err != nil {
			return nil, nil, err
		}
		rep, ms, err := timed(last, r)
		if err != nil {
			return nil, nil, err
		}
		switch rep.xcache {
		case "forward":
			fwd = append(fwd, ms)
		case "hit":
			local = append(local, ms)
		}
		if rep, ms, err = timed(entry, r); err != nil {
			return nil, nil, err
		}
		if rep.xcache == "hit" {
			local = append(local, ms)
		}
	}
	return local, fwd, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new resident-set high-water mark for the
// process (Linux clear_refs), so peakRSSMiB reads the peak of what
// follows rather than of the whole run.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the peak resident set: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
