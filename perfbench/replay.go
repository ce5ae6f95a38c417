package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/accessplan"
	"repro/internal/analysis"
	"repro/internal/costmodel"
	"repro/internal/fsmodel"
	"repro/internal/guard"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/tuner"
)

// layer is one library entry point the replay times from outside.
type layer int

const (
	layerParse layer = iota
	layerLower
	layerPrint
	layerFSModel
	layerCompile
	layerEstimate
	layerAnalysis
	layerTune
	numLayers
)

// spans accumulates, per layer, the wall time and calls of a replay,
// plus the exact counts the layers report.
type spans struct {
	ns    [numLayers]int64
	calls [numLayers]int64
	// nested is the part of ns spent in calls the service does not make
	// directly but which run inside another timed layer.
	nested [numLayers]int64

	fsAccesses, fsSteps, fsAllocBytes int64
	tuneCandidates, tuneVerified      int64
}

func (s *spans) time(l layer, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	s.ns[l] += d.Nanoseconds()
	s.calls[l]++
	return d
}

func (s *spans) add(o *spans) {
	for l := range s.ns {
		s.ns[l] += o.ns[l]
		s.calls[l] += o.calls[l]
		s.nested[l] += o.nested[l]
	}
	s.fsAccesses += o.fsAccesses
	s.fsSteps += o.fsSteps
	s.fsAllocBytes += o.fsAllocBytes
	s.tuneCandidates += o.tuneCandidates
	s.tuneVerified += o.tuneVerified
}

func (s *spans) timeNested(l layer, f func()) {
	s.nested[l] += s.time(l, f).Nanoseconds()
}

// evalBudget mirrors the service's default per-evaluation limits
// (service.Config MaxEvalSteps and MaxEvalStateBytes).
var evalBudget = guard.Budget{MaxSteps: 1 << 28, MaxStateBytes: 256 << 20}

func machineByName(name string) (*machine.Desc, error) {
	switch name {
	case "", "paper48":
		return machine.Paper48(), nil
	case "smalltest":
		return machine.SmallTest(), nil
	case "modern16":
		return machine.Modern16(), nil
	}
	return nil, fmt.Errorf("unknown machine %q", name)
}

// heapAllocated reads the process's cumulative heap allocation.
func heapAllocated() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// replay runs the library calls the service makes for r, in the order
// it makes them, and returns the request's verdict and the time spent
// in the calls the service makes directly. With full unset only the
// calls the verdict needs run (the correctness check); with full set
// the replay also times the calls nested inside another layer
// (accessplan.Compile inside fsmodel.Analyze, and the tuner's own
// parse, lower and print), which it does not add to lib.
func replay(ctx context.Context, r *request, sp *spans, full bool) (verdict string, lib time.Duration, err error) {
	m, err := machineByName(r.wire.Machine)
	if err != nil {
		return "", 0, err
	}
	switch r.path {
	case pathAnalyze:
		return replayAnalyze(r, m, sp, full)
	case pathLint:
		return replayLint(r, m, sp)
	case pathTune:
		return replayTune(ctx, r, m, sp, full)
	}
	return "", 0, fmt.Errorf("unknown path %q", r.path)
}

// replayAnalyze mirrors /v1/analyze: parse and lower as repro.Parse
// does, then one model run for the answer and a second for the
// Equation 1 price, each followed by costmodel.Estimate.
func replayAnalyze(r *request, m *machine.Desc, sp *spans, full bool) (string, time.Duration, error) {
	var lib time.Duration
	var prog *minic.Program
	var unit *loopir.Unit
	var err error
	lib += sp.time(layerParse, func() { prog, err = minic.Parse(r.wire.Source) })
	if err != nil {
		return "", lib, err
	}
	lib += sp.time(layerLower, func() {
		unit, err = loopir.Lower(prog, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
	})
	if err != nil {
		return "", lib, err
	}
	nest := unit.Nests[0]
	counting := fsmodel.CountPaperPhi
	if r.wire.MESI {
		counting = fsmodel.CountMESI
	}
	var answer *fsmodel.Result
	passes := 1
	if full {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		opts := fsmodel.Options{
			Machine:       m,
			NumThreads:    r.wire.Threads,
			Chunk:         r.wire.Chunk,
			Counting:      counting,
			TrackHotLines: pass == 0 && r.wire.HotLines,
			Budget:        evalBudget,
		}
		var res *fsmodel.Result
		before := heapAllocated()
		lib += sp.time(layerFSModel, func() { res, err = fsmodel.Analyze(nest, opts) })
		sp.fsAllocBytes += heapAllocated() - before
		if err != nil {
			return "", lib, err
		}
		sp.fsAccesses += res.Accesses
		sp.fsSteps += res.Steps
		if answer == nil {
			answer = res
		}
		if !full {
			break
		}
		// Nested in fsmodel.Analyze; a nest the compiler rejects runs
		// interpreted there, so a failure here is not an error.
		sp.timeNested(layerCompile, func() { _, _ = accessplan.Compile(nest, res.Plan, m.LineSize) })
		lib += sp.time(layerEstimate, func() { _, err = costmodel.Estimate(nest, m, res.Plan) })
		if err != nil {
			return "", lib, err
		}
	}
	return analyzeVerdict(answer.FSCases, answer.ChunkRunsTotal, answer.Iterations), lib, nil
}

// replayLint mirrors /v1/lint: parse, lower at the machine's line size,
// run the closed-form analysis.
func replayLint(r *request, m *machine.Desc, sp *spans) (string, time.Duration, error) {
	var lib time.Duration
	var prog *minic.Program
	var unit *loopir.Unit
	var rep *analysis.Report
	var err error
	lib += sp.time(layerParse, func() { prog, err = minic.Parse(r.wire.Source) })
	if err != nil {
		return "", lib, err
	}
	lib += sp.time(layerLower, func() {
		unit, err = loopir.Lower(prog, loopir.LowerOptions{LineSize: m.LineSize, SymbolicBounds: true})
	})
	if err != nil {
		return "", lib, err
	}
	lib += sp.time(layerAnalysis, func() {
		rep, err = analysis.Analyze(unit, analysis.Config{Machine: m, Threads: r.wire.Threads, Chunk: r.wire.Chunk})
	})
	if err != nil {
		return "", lib, err
	}
	codes := make([]string, len(rep.Diagnostics))
	for i, d := range rep.Diagnostics {
		codes[i] = d.Code
	}
	return lintVerdict(codes), lib, nil
}

// replayTune mirrors /v1/tune: one tuner.Tune call.
func replayTune(ctx context.Context, r *request, m *machine.Desc, sp *spans, full bool) (string, time.Duration, error) {
	var err error
	if full {
		var prog *minic.Program
		sp.timeNested(layerParse, func() { prog, err = minic.Parse(r.wire.Source) })
		if err != nil {
			return "", 0, err
		}
		sp.timeNested(layerLower, func() {
			_, err = loopir.Lower(prog, loopir.LowerOptions{LineSize: m.LineSize, AllowNonAffine: true, SymbolicBounds: true})
		})
		if err != nil {
			return "", 0, err
		}
		sp.timeNested(layerPrint, func() { _ = minic.Print(prog) })
	}
	var res *tuner.Result
	lib := sp.time(layerTune, func() {
		res, err = tuner.Tune(ctx, r.wire.Source, tuner.Options{
			Machine:    m,
			Threads:    r.wire.Threads,
			Chunk:      r.wire.Chunk,
			Budget:     evalBudget,
			KeepHeader: true,
		})
	})
	if err != nil {
		return "", lib, err
	}
	sp.tuneCandidates += int64(len(res.Candidates))
	for _, c := range res.Candidates {
		if c.Verified {
			sp.tuneVerified++
		}
	}
	return tuneVerdict(res.PlanSummary, res.Baseline.SimulatedFS, res.Chosen.SimulatedFS), lib, nil
}

// Verdicts are one-line canonical forms of the fields a response is
// judged by, built the same way from the library result and from the
// service's JSON.

func analyzeVerdict(fsCases, chunkRuns, iterations int64) string {
	return fmt.Sprintf("fs_cases=%d chunk_runs=%d iterations=%d", fsCases, chunkRuns, iterations)
}

func lintVerdict(codes []string) string {
	if len(codes) == 0 {
		return "clean"
	}
	counts := map[string]int{}
	for _, c := range codes {
		counts[c]++
	}
	names := make([]string, 0, len(counts))
	for c := range counts {
		names = append(names, c)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, c := range names {
		parts[i] = fmt.Sprintf("%s=%d", c, counts[c])
	}
	return strings.Join(parts, " ")
}

func tuneVerdict(plan string, baselineFS, chosenFS int64) string {
	return fmt.Sprintf("plan=%q baseline_fs=%d chosen_fs=%d", plan, baselineFS, chosenFS)
}

var errDegraded = errors.New("degraded response")

// verdictOrError is responseVerdict with a failure folded into the
// string, which then matches no library verdict.
func verdictOrError(path string, body []byte) string {
	v, err := responseVerdict(path, body)
	if err != nil {
		return "error: " + err.Error()
	}
	return v
}

// responseVerdict decodes a 200 body of path into its verdict. A
// degraded answer is an error: it is cheap, and must never count as a
// fast success.
func responseVerdict(path string, body []byte) (string, error) {
	switch path {
	case pathAnalyze:
		var v struct {
			FSCases    int64 `json:"fs_cases"`
			ChunkRuns  int64 `json:"chunk_runs"`
			Iterations int64 `json:"iterations"`
			Degraded   bool  `json:"degraded"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return "", err
		}
		if v.Degraded {
			return "", errDegraded
		}
		return analyzeVerdict(v.FSCases, v.ChunkRuns, v.Iterations), nil
	case pathLint:
		var v struct {
			Report *struct {
				Diagnostics []struct {
					Code string `json:"code"`
				} `json:"diagnostics"`
			} `json:"report"`
			Degraded bool `json:"degraded"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return "", err
		}
		if v.Degraded {
			return "", errDegraded
		}
		if v.Report == nil {
			return "", errors.New("lint response without report")
		}
		codes := make([]string, len(v.Report.Diagnostics))
		for i, d := range v.Report.Diagnostics {
			codes[i] = d.Code
		}
		return lintVerdict(codes), nil
	case pathTune:
		var v struct {
			Report *struct {
				PlanSummary string `json:"plan_summary"`
				Baseline    struct {
					SimulatedFS int64 `json:"simulated_fs"`
				} `json:"baseline"`
				Chosen struct {
					SimulatedFS int64 `json:"simulated_fs"`
				} `json:"chosen"`
			} `json:"report"`
			Degraded bool `json:"degraded"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return "", err
		}
		if v.Degraded {
			return "", errDegraded
		}
		if v.Report == nil {
			return "", errors.New("tune response without report")
		}
		return tuneVerdict(v.Report.PlanSummary, v.Report.Baseline.SimulatedFS, v.Report.Chosen.SimulatedFS), nil
	}
	return "", fmt.Errorf("unknown path %q", path)
}
