package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fsmodel"
	"repro/internal/kernels"
	"repro/internal/loopir"
)

// differentialSources returns the paper kernels (at reduced sizes, with
// linreg laid out for each team size) and every mini-C source of the
// repository's corpus.
func differentialSources(t *testing.T, threads int) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"kernel/heat":   kernels.HeatSource(12, 1024),
		"kernel/dft":    kernels.DFTSource(96),
		"kernel/linreg": kernels.LinRegSource(128, 256, threads),
	}
	for _, dir := range []string{"testdata", "examples/lint", "examples/tune"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.c"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			srcs[f] = string(b)
		}
	}
	return srcs
}

// TestAnalyzeOneRunMatchesSeparatePricing is the differential gate for
// the one-run analysis: Analysis.Cost and FSShare, priced from the run
// that produced the FS answer, must equal Equation 1 computed from an
// independent fsmodel.Analyze (without hot-line tracking) of the same
// options, field for field; and every RecommendChunk candidate must equal
// a standalone Analyze at its chunk.
func TestAnalyzeOneRunMatchesSeparatePricing(t *testing.T) {
	chunks := []int64{1, 8, 64}
	for _, threads := range []int{8, 48} {
		for name, src := range differentialSources(t, threads) {
			prog, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, n := range prog.unit.Nests {
				for _, mesi := range []bool{false, true} {
					for _, hot := range []bool{false, true} {
						label := fmt.Sprintf("%s#%d threads=%d mesi=%t hot=%t", name, i, threads, mesi, hot)
						opts := Options{Threads: threads, MESICounting: mesi, TrackHotLines: hot}
						byChunk := map[int64]*Analysis{}
						for _, c := range chunks {
							o := opts
							o.Chunk = c
							a, aerr := prog.Analyze(i, o)
							m := o.Machine.resolve()
							res, rerr := fsmodel.Analyze(n, fsmodel.Options{
								Machine:    m,
								NumThreads: o.Threads,
								Chunk:      o.Chunk,
								StackDepth: o.StackDepth,
								Counting:   o.counting(),
							})
							if (aerr == nil) != (rerr == nil) {
								t.Fatalf("%s chunk=%d: Analyze err=%v, fsmodel err=%v", label, c, aerr, rerr)
							}
							if aerr != nil {
								continue
							}
							byChunk[c] = a
							if a.FSCases != res.FSCases {
								t.Fatalf("%s chunk=%d: FSCases %d, separate run %d", label, c, a.FSCases, res.FSCases)
							}
							want, wantShare, cerr := separatePrice(n, res, o)
							if (a.CostErr == nil) != (cerr == nil) {
								t.Fatalf("%s chunk=%d: CostErr=%v, costmodel err=%v", label, c, a.CostErr, cerr)
							}
							if a.Cost != want {
								t.Fatalf("%s chunk=%d: Cost %+v, separate pricing %+v", label, c, a.Cost, want)
							}
							if a.FSShare != wantShare {
								t.Fatalf("%s chunk=%d: FSShare %v, separate pricing %v", label, c, a.FSShare, wantShare)
							}
						}
						if len(byChunk) != len(chunks) {
							continue
						}
						rec, err := prog.RecommendChunk(i, opts, chunks)
						if err != nil {
							t.Fatalf("%s: RecommendChunk: %v", label, err)
						}
						for k, cand := range rec.Evaluated {
							a := byChunk[chunks[k]]
							if cand.Chunk != chunks[k] || cand.FSCases != a.FSCases || cand.TotalCycles != a.Cost.TotalWallCycles {
								t.Fatalf("%s: candidate %+v, standalone Analyze fs=%d total=%v",
									label, cand, a.FSCases, a.Cost.TotalWallCycles)
							}
						}
					}
				}
			}
		}
	}
}

// separatePrice applies Equation 1 and the FS share to a model result the
// way a caller pricing a finished fsmodel run would.
func separatePrice(n *loopir.Nest, res *fsmodel.Result, o Options) (CostReport, float64, error) {
	m := o.Machine.resolve()
	base, err := costmodel.Estimate(n, m, res.Plan)
	if err != nil {
		return CostReport{}, 0, err
	}
	total := base.TotalWithFS(res.FSCases, m, res.Plan.NumThreads)
	cost := CostReport{
		MachinePerIter:      base.MachinePerIter,
		CachePerIter:        base.CachePerIter,
		TLBPerIter:          base.TLBPerIter,
		LoopOverheadPerIter: base.LoopOverheadPerIter,
		ParallelOverhead:    base.ParallelOverhead,
		BaseWallCycles:      base.BaseWallCycles,
		TotalWallCycles:     total,
		FSCycles:            total - base.BaseWallCycles,
	}
	totalWork := base.PerIter()*float64(base.TotalIterations) + base.ParallelOverhead
	fsWork := float64(res.FSCases) * float64(m.CoherenceLatency)
	share := 0.0
	if totalWork+fsWork > 0 {
		share = fsWork / (totalWork + fsWork)
	}
	return cost, share, nil
}
