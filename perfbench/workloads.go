package main

import (
	"fmt"
	"math"
)

// workload is one traffic mix. A run sends a fixed, seeded request
// sequence whose length is rate × --seconds (at least minTimed), so
// every run of a workload does the same work whatever the host's speed.
type workload struct {
	name    string
	clients int
	// rate sizes the timed sequence: requests per second of --seconds,
	// set so that on a shared 2-core host the timed phase takes about
	// --seconds and a whole run, checks included, about twice that.
	// The cold workloads' rates make a 10-second run a whole number of
	// class rounds: 6 of analyze-cold's, 2 of tune-lint-cold's.
	rate float64
	gen  func(seed int64, timed int) *inputs
}

// minTimed keeps at least ten samples beyond the reported p99.
const minTimed = 1000

var workloads = []workload{
	{name: "analyze-cold", clients: 1, rate: 172.8, gen: genAnalyzeCold},
	{name: "tune-lint-cold", clients: 2, rate: 226.8, gen: genTuneLintCold},
	{name: "service-hot", clients: 2, rate: 20000, gen: genServiceHot},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) timedCount(seconds int) int {
	return max(minTimed, int(math.Round(w.rate*float64(seconds))))
}

func (in *inputs) add(r *request) int {
	in.keys = append(in.keys, r)
	return len(in.keys) - 1
}

// Warm-up lengths, in requests: a quarter of the analyze classes and
// a third of the lint and tune classes, spread evenly over the class
// grid, so set-up is several hundred milliseconds of the same work on
// every seed.
const (
	analyzeWarm     = 72
	tuneLintWarm    = 378
	hotWarmRequests = 20000
)

// genAnalyzeCold: one distinct analyze key per timed request; the
// warm-up draws from its own stream and never repeats a timed key.
func genAnalyzeCold(seed int64, timed int) *inputs {
	seen := map[string]bool{}
	in := &inputs{}
	ts := analyzeStream(streamRand(seed, streamTimed), seen)
	for i := 0; i < timed; i++ {
		in.timed = append(in.timed, in.add(ts.next()))
	}
	for _, r := range analyzeStream(streamRand(seed, streamWarm), seen).spread(analyzeWarm) {
		in.warm = append(in.warm, in.add(r))
	}
	return in
}

// genTuneLintCold: one distinct lint or tune key per timed request.
func genTuneLintCold(seed int64, timed int) *inputs {
	seen := map[string]bool{}
	in := &inputs{}
	ts := tuneLintStream(streamRand(seed, streamTimed), seen)
	for i := 0; i < timed; i++ {
		in.timed = append(in.timed, in.add(ts.next()))
	}
	for _, r := range tuneLintStream(streamRand(seed, streamWarm), seen).spread(tuneLintWarm) {
		in.warm = append(in.warm, in.add(r))
	}
	return in
}

// genServiceHot: a fixed hot set of analyze, lint and tune keys, filled
// during set-up; warm-up and timed requests are Zipf draws over it from
// separate streams. The hot set spreads over the analyze classes and
// over the lint and tune classes, in the interleaved rank order of
// hotPattern.
func genServiceHot(seed int64, timed int) *inputs {
	seen := map[string]bool{}
	in := &inputs{}
	rng := streamRand(seed, streamHot)
	kinds := map[byte]int{}
	for r := 0; r < hotKeys; r++ {
		kinds[hotPattern[r%len(hotPattern)]]++
	}
	analyze := analyzeStream(rng, seen).spread(kinds['a'])
	tl := tuneLintStream(rng, seen)
	next := map[byte]int{}
	for r := 0; r < hotKeys; r++ {
		kind := hotPattern[r%len(hotPattern)]
		k := next[kind]
		next[kind]++
		var req *request
		switch kind {
		case 'a':
			req = analyze[k]
		case 'l', 't':
			// Class index = path slot + len(tlPaths) × the rest; slot 0
			// is lint and slot 1 tune.
			slot := 0
			if kind == 't' {
				slot = 1
			}
			rest := tuneLintClasses / len(tlPaths)
			req = tl.draw(slot + len(tlPaths)*(k*rest/kinds[kind]))
		}
		in.fill = append(in.fill, in.add(req))
	}
	wz := newZipf(streamRand(seed, streamWarm), hotKeys, zipfS)
	for i := 0; i < hotWarmRequests; i++ {
		in.warm = append(in.warm, wz.next())
	}
	tz := newZipf(streamRand(seed, streamTimed), hotKeys, zipfS)
	for i := 0; i < timed; i++ {
		in.timed = append(in.timed, tz.next())
	}
	return in
}
