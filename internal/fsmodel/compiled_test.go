package fsmodel

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
)

// machineWithLine clones Paper48 with a different cache-line size, the
// second axis of the differential matrix.
func machineWithLine(t *testing.T, line int64) *machine.Desc {
	t.Helper()
	d := *machine.Paper48()
	d.Name = fmt.Sprintf("paper48-l%d", line)
	d.LineSize = line
	d.L1.LineSize = line
	d.L2.LineSize = line
	d.L3.LineSize = line
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return &d
}

// requireMatchesRef compares every externally observable field of a
// reference run and an Analyze run (except the extrapolation echo
// fields, which only Analyze can set).
func requireMatchesRef(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	type counters struct {
		FSCases, Invalidations, Iterations, Steps, Accesses int64
		ColdMisses, CapacityEvictions                       int64
		ChunkRunsEvaluated, ChunkRunsTotal                  int64
		Truncated                                           bool
	}
	r := counters{ref.FSCases, ref.Invalidations, ref.Iterations, ref.Steps, ref.Accesses,
		ref.ColdMisses, ref.CapacityEvictions, ref.ChunkRunsEvaluated, ref.ChunkRunsTotal, ref.Truncated}
	g := counters{got.FSCases, got.Invalidations, got.Iterations, got.Steps, got.Accesses,
		got.ColdMisses, got.CapacityEvictions, got.ChunkRunsEvaluated, got.ChunkRunsTotal, got.Truncated}
	if r != g {
		t.Fatalf("%s: counters differ:\nreference: %+v\nanalyze:   %+v", label, r, g)
	}
	if !reflect.DeepEqual(ref.PerRun, got.PerRun) {
		t.Fatalf("%s: PerRun differs:\nreference: %v\nanalyze:   %v", label, ref.PerRun, got.PerRun)
	}
	if !reflect.DeepEqual(ref.ByRef, got.ByRef) {
		t.Fatalf("%s: ByRef differs:\nreference: %+v\nanalyze:   %+v", label, ref.ByRef, got.ByRef)
	}
	if !reflect.DeepEqual(ref.hotLines, got.hotLines) {
		t.Fatalf("%s: hot lines differ:\nreference: %v\nanalyze:   %v", label, ref.hotLines, got.hotLines)
	}
}

// analyzeWithRef runs the reference and then the production evaluator
// (on the map state when mapOnly, else on the state Analyze picks).
func analyzeWithRef(t *testing.T, label string, nest *loopir.Nest, opts Options, mapOnly bool) (*Result, *Result) {
	t.Helper()
	ref, err := analyzeRef(nest, opts)
	if err != nil {
		t.Fatalf("%s reference: %v", label, err)
	}
	got, err := evaluate(nest, opts, mapOnly)
	if err != nil {
		t.Fatalf("%s analyze: %v", label, err)
	}
	return ref, got
}

// TestCompiledMatchesInterpretedKernels is the golden gate: on every
// paper kernel, at chunks {1, 2, 8, L/8} and line sizes {64, 128}, under
// both counting modes, with per-run recording and hot-line tracking on,
// the compiled access-run executor and the per-iteration reference
// interpreter produce identical results in every field.
func TestCompiledMatchesInterpretedKernels(t *testing.T) {
	nests := goldenKernels(t)
	for _, line := range []int64{64, 128} {
		m := machineWithLine(t, line)
		chunks := []int64{1, 2, 8}
		if line/8 != 8 {
			chunks = append(chunks, line/8)
		}
		for name, nest := range nests {
			for _, chunk := range chunks {
				for _, mode := range []CountingMode{CountPaperPhi, CountMESI} {
					label := fmt.Sprintf("%s line=%d chunk=%d mode=%v", name, line, chunk, mode)
					opts := Options{
						Machine: m, NumThreads: 8, Chunk: chunk,
						Counting: mode, RecordPerRun: true, TrackHotLines: true,
					}
					ref, got := analyzeWithRef(t, label, nest, opts, false)
					requireMatchesRef(t, label, ref, got)
				}
			}
		}
	}
}

// TestCompiledMatchesInterpretedSmallStack repeats the cross-check where
// capacity evictions dominate: on the dense lazy state and on the map
// state, and under the set-associative ablation (which always runs on the
// map state), in both counting modes.
func TestCompiledMatchesInterpretedSmallStack(t *testing.T) {
	nests := goldenKernels(t)
	for name, nest := range nests {
		for _, mode := range []CountingMode{CountPaperPhi, CountMESI} {
			base := Options{
				Machine: machine.Paper48(), NumThreads: 4, Chunk: 1,
				Counting: mode, RecordPerRun: true, TrackHotLines: true,
			}
			for _, depth := range []int{1, 2, 7} {
				for _, mapOnly := range []bool{false, true} {
					label := fmt.Sprintf("%s mode=%v depth=%d mapOnly=%v", name, mode, depth, mapOnly)
					opts := base
					opts.StackDepth = depth
					ref, got := analyzeWithRef(t, label, nest, opts, mapOnly)
					if got.lazy == mapOnly {
						t.Fatalf("%s: ran lazy=%v", label, got.lazy)
					}
					requireMatchesRef(t, label, ref, got)
				}
			}
			for _, assoc := range []int64{2, 8} {
				for _, depth := range []int{1, 7} {
					label := fmt.Sprintf("%s mode=%v assoc=%d depth=%d", name, mode, assoc, depth)
					opts := base
					opts.StackDepth = depth
					opts.Associativity = assoc
					ref, got := analyzeWithRef(t, label, nest, opts, false)
					if got.lazy {
						t.Fatalf("%s: set-associative run used the lazy state", label)
					}
					requireMatchesRef(t, label, ref, got)
				}
			}
		}
	}
}

// corpusNests parses every mini-C source under testdata/, examples/lint/
// and examples/tune/ and returns each of its loop nests.
func corpusNests(t *testing.T) map[string]*loopir.Nest {
	t.Helper()
	out := map[string]*loopir.Nest{}
	for _, dir := range []string{"../../testdata", "../../examples/lint", "../../examples/tune"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if filepath.Ext(e.Name()) != ".c" {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := minic.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: parse: %v", e.Name(), err)
			}
			unit, err := loopir.Lower(prog, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
			if err != nil {
				t.Fatalf("%s: lower: %v", e.Name(), err)
			}
			for i, n := range unit.Nests {
				out[fmt.Sprintf("%s/%s#%d", filepath.Base(dir), e.Name(), i)] = n
			}
		}
	}
	return out
}

// TestCompiledMatchesInterpretedCorpus runs the differential gate over
// every nest in the repository's source corpus. Nests the reference
// rejects (symbolic bounds, no parallel loop) must be rejected by Analyze
// too; every nest it accepts must produce identical results.
func TestCompiledMatchesInterpretedCorpus(t *testing.T) {
	for _, chunk := range []int64{1, 8} {
		for label, nest := range corpusNests(t) {
			label := fmt.Sprintf("%s chunk=%d", label, chunk)
			opts := Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: chunk,
				Counting: CountMESI, RecordPerRun: true, TrackHotLines: true}
			ref, rerr := analyzeRef(nest, opts)
			got, gerr := Analyze(nest, opts)
			if (rerr == nil) != (gerr == nil) {
				t.Fatalf("%s: reference err=%v, analyze err=%v", label, rerr, gerr)
			}
			if rerr != nil {
				continue
			}
			requireMatchesRef(t, label, ref, got)
		}
	}
}

// TestAnalyzeAcceptsEveryNest is the gate against uncompilable input:
// with no second evaluator to fall back to, every paper kernel and every
// nest of the source corpus analyzes without error, except the nests
// whose structure the model cannot schedule at all.
func TestAnalyzeAcceptsEveryNest(t *testing.T) {
	rejected := map[string]bool{
		"testdata/runtime_bounds.c#0": true, // loop bound unknown at compile time
	}
	nests := corpusNests(t)
	for name, nest := range goldenKernels(t) {
		nests["kernel/"+name] = nest
	}
	mm, err := kernels.MatMul(24)
	if err != nil {
		t.Fatal(err)
	}
	nests["kernel/matmul"] = mm.Nest
	for label, nest := range nests {
		_, err := Analyze(nest, Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: 1})
		if rejected[label] {
			if err == nil {
				t.Errorf("%s: analyzed, want a rejection", label)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// TestAnalyzeRejectsInvalidMachine pins that a machine the access-run
// compiler cannot lower is refused up front with an error, never run on a
// second path.
func TestAnalyzeRejectsInvalidMachine(t *testing.T) {
	nest := goldenKernels(t)["heat"]
	for _, tc := range []struct {
		name string
		edit func(d *machine.Desc)
	}{
		{"line size not a power of two", func(d *machine.Desc) {
			d.LineSize = 48
			d.L1.LineSize, d.L2.LineSize, d.L3.LineSize = 48, 48, 48
		}},
	} {
		d := *machine.Paper48()
		tc.edit(&d)
		if _, err := Analyze(nest, Options{Machine: &d, NumThreads: 8, Chunk: 1}); err == nil {
			t.Errorf("%s: Analyze accepted the machine", tc.name)
		}
	}
}

// TestBudgetStopsIdenticalAcrossEvals pins the run-batching budget
// contract: the compiled executor amortizes its budget checks at the
// same exact access boundaries as the per-access reference, so a tripped
// MaxSteps budget reports the identical Used count on either state, and
// the overshoot stays within one check interval.
func TestBudgetStopsIdenticalAcrossEvals(t *testing.T) {
	kern, err := kernels.Heat(16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: 1}
	full, err := Analyze(kern.Nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Budget = guard.Budget{MaxSteps: full.Accesses / 2}
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"reference", func() (*Result, error) { return analyzeRef(kern.Nest, opts) }},
		{"lazy", func() (*Result, error) { return evaluate(kern.Nest, opts, false) }},
		{"map", func() (*Result, error) { return evaluate(kern.Nest, opts, true) }},
	}
	used := make([]int64, len(runs))
	for i, r := range runs {
		_, err := r.run()
		var be *guard.BudgetError
		if !errors.As(err, &be) || be.Resource != "steps" {
			t.Fatalf("%s: err = %v, want *guard.BudgetError{steps}", r.name, err)
		}
		if be.Used <= be.Limit || be.Used > be.Limit+budgetCheckEvery {
			t.Fatalf("%s: stopped at %d for limit %d (interval %d)", r.name, be.Used, be.Limit, budgetCheckEvery)
		}
		used[i] = be.Used
	}
	for i := range runs[1:] {
		if used[i+1] != used[0] {
			t.Fatalf("%s stopped at %d accesses, the reference at %d", runs[i+1].name, used[i+1], used[0])
		}
	}
}
