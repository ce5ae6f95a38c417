package fsmodel

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
)

// goldenKernels loads the three paper kernels at reduced-but-nontrivial
// scale for the differential tests.
func goldenKernels(t *testing.T) map[string]*loopir.Nest {
	t.Helper()
	heat, err := kernels.Heat(12, 1024)
	if err != nil {
		t.Fatal(err)
	}
	dft, err := kernels.DFT(96)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := kernels.LinReg(128, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*loopir.Nest{"heat": heat.Nest, "dft": dft.Nest, "linreg": lr.Nest}
}

// TestBackendsBitIdentical is the golden cross-check of the two
// per-thread state implementations: on every paper kernel, under both
// counting modes, with FS and FS-free chunks, with per-run recording and
// hot-line tracking on, Analyze on the dense lazy state and on the map
// state each match the reference interpreter in every field.
func TestBackendsBitIdentical(t *testing.T) {
	nests := goldenKernels(t)
	chunks := map[string][2]int64{
		"heat":   {kernels.HeatFSChunk, kernels.HeatNFSChunk},
		"dft":    {kernels.DFTFSChunk, kernels.DFTNFSChunk},
		"linreg": {kernels.LinRegFSChunk, kernels.LinRegNFSChunk},
	}
	for name, nest := range nests {
		for _, chunk := range chunks[name] {
			for _, mode := range []CountingMode{CountPaperPhi, CountMESI} {
				opts := Options{
					Machine: machine.Paper48(), NumThreads: 8, Chunk: chunk,
					Counting: mode, RecordPerRun: true, TrackHotLines: true,
				}
				requireStatesMatchRef(t, fmt.Sprintf("%s chunk=%d mode=%v", name, chunk, mode), nest, opts)
			}
		}
	}
}

// TestBackendsIdenticalSmallStack repeats the cross-check with a tiny
// stack depth so capacity evictions (the subtlest bookkeeping difference
// between the two directory representations) dominate.
func TestBackendsIdenticalSmallStack(t *testing.T) {
	nests := goldenKernels(t)
	for name, nest := range nests {
		for _, depth := range []int{1, 2, 7} {
			opts := Options{
				Machine: machine.Paper48(), NumThreads: 4, Chunk: 1,
				StackDepth: depth, Counting: CountMESI, RecordPerRun: true, TrackHotLines: true,
			}
			requireStatesMatchRef(t, fmt.Sprintf("%s depth=%d", name, depth), nest, opts)
		}
	}
}

// requireStatesMatchRef runs Analyze once on the dense lazy state and once
// on the map state and holds each against the reference.
func requireStatesMatchRef(t *testing.T, label string, nest *loopir.Nest, opts Options) {
	t.Helper()
	for _, mapOnly := range []bool{false, true} {
		label := fmt.Sprintf("%s mapOnly=%v", label, mapOnly)
		ref, got := analyzeWithRef(t, label, nest, opts, mapOnly)
		if got.lazy == mapOnly {
			t.Fatalf("%s: ran lazy=%v", label, got.lazy)
		}
		requireMatchesRef(t, label, ref, got)
	}
}

// TestAutoSelectsDenseOnPaperKernels checks Analyze picks the dense lazy
// state for every paper kernel (their symbol extents are contiguous and
// comfortably within budget).
func TestAutoSelectsDenseOnPaperKernels(t *testing.T) {
	for name, nest := range goldenKernels(t) {
		res, err := Analyze(nest, Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.lazy {
			t.Errorf("%s: Analyze ran the map state, want the dense lazy state", name)
		}
	}
}

// TestSetAssocForcesMapBackend checks the set-associative ablation always
// runs on the map state.
func TestSetAssocForcesMapBackend(t *testing.T) {
	nest := goldenKernels(t)["linreg"]
	opts := Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: 1, Associativity: 8}
	res, err := Analyze(nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.lazy {
		t.Fatal("set-associative run used the dense lazy state, want the map state")
	}
}

// TestDenseRangeFallsBackToMap drives an affine reference outside its
// symbol's declared extent: the dense window cannot contain it, so
// Analyze must restart on the map state and still count like the
// reference.
func TestDenseRangeFallsBackToMap(t *testing.T) {
	src := `
#define N 8
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(2)
for (i = 0; i < N; i++) a[i + 63] = 1.0;
`
	nest := loadNest(t, src)
	opts := Options{Machine: machine.Paper48(), RecordPerRun: true, TrackHotLines: true}
	ref, res := analyzeWithRef(t, "out-of-extent", nest, opts, false)
	if res.lazy {
		t.Fatal("out-of-extent run finished on the dense lazy state, want the map fallback")
	}
	requireMatchesRef(t, "out-of-extent", ref, res)
}
