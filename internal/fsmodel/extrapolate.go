package fsmodel

// Steady-state chunk-run extrapolation (Options.Extrapolate): the
// paper's Fig. 6 observation is that FS counts grow linearly in chunk
// runs once the cache states reach steady state, because each run is the
// previous run shifted by a fixed byte offset. The compiled executor
// therefore simulates runs only until the per-run deltas of every
// counter (including per-ref attribution) are exactly periodic over
// three consecutive periods, then closes the remaining runs in O(period)
// integer arithmetic.
//
// Eligibility is deliberately narrow — the closure is only used where it
// is provably congruent:
//
//   - Every loop bound must be a compile-time constant, so the
//     trip/schedule structure of run i+p is identical to run i's
//     (shifted in addresses only).
//   - The parallel trip count must divide into whole cycles
//     (parTrips % (chunk·threads) == 0). Then every thread owns the same
//     trip count, the team never drifts, and every remaining run —
//     including the final one — is congruent to a phase-mate inside the
//     confirmed window. With ragged ownership (e.g. heat's 4094 trips
//     over 48 threads) light threads exhaust whole lockstep steps early:
//     the team's internal skew grows with the outer trip index, the
//     trailing runs lose members, and no state-aliasing jump short of
//     lcm(per-thread trip counts) steps is congruent — such nests fall
//     back to full simulation.
//   - When the parallel loop has enclosing loops, candidate periods are
//     restricted to multiples of the runs-per-instantiation count, so a
//     period can never hide an instantiation-boundary anomaly inside a
//     confirmation window.
//   - History recording starts only once every LRU stack is at capacity:
//     periodic deltas observed during the fill transient describe
//     eviction-free warm-up behaviour, not the steady state the
//     remaining runs will exhibit.
//   - Runs that never become periodic simply fall back to full
//     simulation (detection switches off after a bounded effort).
//
// The differential gate in extrapolate_test.go re-simulates fully and
// asserts bit-equality on every kernel in the matrix.

// exVec is a cumulative counter snapshot at a chunk-run boundary.
type exVec struct {
	fs, inv, cold, evict, iters, steps, acc int64
	byRef                                   []int64
}

type extrapolator struct {
	rpi     int64 // candidate periods are multiples of this
	nextTry int64 // delta count at which to next attempt detection
	off     bool

	run      int64   // 1-based index of the run whose boundary is current
	firstRun int64   // run index hist[0] was captured at (post-warm-up)
	hist     []exVec // hist[i] = snapshot at the start of run firstRun+i
}

const exMaxDetect = int64(1) << 14

// newExtrapolator returns nil when the run is ineligible; the executor
// then simply simulates everything.
func newExtrapolator(r *run) *extrapolator {
	if !r.extrapolate || r.trackRuns || r.trackHot {
		return nil
	}
	total := r.res.ChunkRunsTotal
	if total <= 0 {
		return nil
	}
	for _, l := range r.nest.Loops {
		if _, ok := l.ConstTripCount(); !ok {
			return nil
		}
	}
	parLevel := r.nest.ParLevel
	if parLevel < 0 {
		parLevel = 0
	}
	// The warm-up guard below watches the lazy dense state's occupancy.
	if r.lz == nil {
		return nil
	}
	parTrips, _ := r.nest.Loops[parLevel].ConstTripCount()
	if parTrips%(r.plan.Chunk*int64(r.plan.NumThreads)) != 0 {
		return nil
	}
	ex := &extrapolator{rpi: 1}
	// Advancing one period must shift every reference by a whole number
	// of cache lines, or the confirmation window can sit entirely between
	// two line crossings of a slow-moving reference (e.g. dft's x[k],
	// which moves 8 bytes per outer trip and crosses a line every 8th)
	// and certify a period the true delta sequence breaks later. The
	// byte shift per period unit is the ref's outermost-trip stride when
	// the parallel loop is nested, or chunk·threads·stride when the
	// parallel loop is outermost; all alignment factors divide the
	// power-of-two line size, so their lcm is their max.
	tripsPerRun := r.plan.Chunk * int64(r.plan.NumThreads)
	if parLevel > 0 {
		n0, ok := r.nest.Loops[0].ConstTripCount()
		if !ok || n0 <= 0 || total%n0 != 0 {
			return nil
		}
		ex.rpi = total / n0 // runs per outermost trip
		tripsPerRun = 1     // shift per unit is one outermost trip
	}
	align := int64(1)
	for i := 0; i < r.ap.NumRefs(); i++ {
		s := r.ap.TripByteStride(i, 0) * tripsPerRun
		if s < 0 {
			s = -s
		}
		if s == 0 || s%r.lineSize == 0 {
			continue
		}
		// f = lineSize / gcd(lineSize, s); both powers of two, so the lcm
		// of the per-ref factors below is their max.
		if f := r.lineSize / (s & -s); f > align {
			align = f
		}
	}
	ex.rpi *= align
	if ex.rpi <= 0 || 3*ex.rpi+2 > total || 3*ex.rpi+2 > exMaxDetect {
		return nil
	}
	ex.nextTry = 3 * ex.rpi
	if ex.nextTry < 12 {
		ex.nextTry = 12
	}
	return ex
}

func (ex *extrapolator) capture(r *run) exVec {
	res := r.res
	v := exVec{res.FSCases, res.Invalidations, res.ColdMisses, res.CapacityEvictions,
		res.Iterations, res.Steps, res.Accesses, nil}
	if len(res.ByRef) > 0 {
		v.byRef = make([]int64, len(res.ByRef))
		for i := range res.ByRef {
			v.byRef[i] = res.ByRef[i].FSCases
		}
	}
	return v
}

// deltaEq reports whether run deltas i and j (1-based run indices) are
// identical in every counter.
func (ex *extrapolator) deltaEq(i, j int64) bool {
	a2, a1 := &ex.hist[i], &ex.hist[i-1]
	b2, b1 := &ex.hist[j], &ex.hist[j-1]
	if a2.fs-a1.fs != b2.fs-b1.fs ||
		a2.inv-a1.inv != b2.inv-b1.inv ||
		a2.cold-a1.cold != b2.cold-b1.cold ||
		a2.evict-a1.evict != b2.evict-b1.evict ||
		a2.iters-a1.iters != b2.iters-b1.iters ||
		a2.steps-a1.steps != b2.steps-b1.steps ||
		a2.acc-a1.acc != b2.acc-b1.acc {
		return false
	}
	for k := range a2.byRef {
		if a2.byRef[k]-a1.byRef[k] != b2.byRef[k]-b1.byRef[k] {
			return false
		}
	}
	return true
}

// periodic reports whether the last 3p deltas are p-periodic.
func (ex *extrapolator) periodic(p, n int64) bool {
	for i := n - 2*p + 1; i <= n; i++ {
		if !ex.deltaEq(i, i-p) {
			return false
		}
	}
	return true
}

func (ex *extrapolator) detect(n int64) int64 {
	for p := ex.rpi; 3*p <= n; p += ex.rpi {
		if ex.periodic(p, n) {
			return p
		}
	}
	return 0
}

// warm reports whether the cache state is past the fill transient:
// periodic deltas observed while the LRU stacks are still filling
// describe eviction-free warm-up behaviour, not the steady state the
// remaining runs will exhibit, so history only starts once every thread
// is at capacity (unbounded stacks never evict and are warm at once).
func (ex *extrapolator) warm(r *run) bool {
	lz := r.lz
	if lz.cap == 0 {
		return true
	}
	for t := 0; t < lz.threads; t++ {
		if lz.live[t] < lz.cap {
			return false
		}
	}
	return true
}

// boundary is called by the executor at the start of every chunk run,
// after thread 0's iteration count but before any of the run's accesses.
// It reports closed = true when the totals are final and the executor
// should return immediately.
func (ex *extrapolator) boundary(r *run) (closed bool, err error) {
	if ex.off {
		return false, nil
	}
	ex.run++
	if len(ex.hist) == 0 {
		if !ex.warm(r) {
			return false, nil
		}
		ex.firstRun = ex.run
	}
	ex.hist = append(ex.hist, ex.capture(r))
	n := int64(len(ex.hist)) - 1 // completed run deltas so far
	if n < ex.nextTry {
		return false, nil
	}
	p := ex.detect(n)
	if p == 0 {
		ex.nextTry = 2 * n
		if ex.nextTry > exMaxDetect {
			ex.off = true
			ex.hist = nil
		}
		return false, nil
	}
	return ex.close(r, p)
}

// addDelta accumulates run i's delta into dst.
func (ex *extrapolator) addDelta(dst *exVec, i int64) {
	a2, a1 := &ex.hist[i], &ex.hist[i-1]
	dst.fs += a2.fs - a1.fs
	dst.inv += a2.inv - a1.inv
	dst.cold += a2.cold - a1.cold
	dst.evict += a2.evict - a1.evict
	dst.iters += a2.iters - a1.iters
	dst.steps += a2.steps - a1.steps
	dst.acc += a2.acc - a1.acc
	for k := range a2.byRef {
		dst.byRef[k] += a2.byRef[k] - a1.byRef[k]
	}
}

// addPeriodic accumulates into sum the periodic extension of the
// confirmed window over count runs starting at run B = n+1: whole
// periods scaled, plus a partial prefix of the next.
func (ex *extrapolator) addPeriodic(sum *exVec, n, p, count int64) {
	q, rem := count/p, count%p
	if q > 0 {
		var period exVec
		period.byRef = make([]int64, len(sum.byRef))
		for j := n - p + 1; j <= n; j++ {
			ex.addDelta(&period, j)
		}
		sum.fs += q * period.fs
		sum.inv += q * period.inv
		sum.cold += q * period.cold
		sum.evict += q * period.evict
		sum.iters += q * period.iters
		sum.steps += q * period.steps
		sum.acc += q * period.acc
		for k := range sum.byRef {
			sum.byRef[k] += q * period.byRef[k]
		}
	}
	for k := int64(1); k <= rem; k++ {
		ex.addDelta(sum, n+k-p)
	}
}

// apply folds a closure delta into the result and credits the closed
// accesses against the budget at the same amortized boundaries full
// simulation would have hit.
func (ex *extrapolator) apply(r *run, sum *exVec) error {
	res := r.res
	res.FSCases += sum.fs
	res.Invalidations += sum.inv
	res.ColdMisses += sum.cold
	res.CapacityEvictions += sum.evict
	res.Iterations += sum.iters
	res.Steps += sum.steps
	for k := range sum.byRef {
		res.ByRef[k].FSCases += sum.byRef[k]
	}
	return r.addAccesses(sum.acc)
}

// close computes the final totals in O(period) additions. The executor
// sits at the start of run B (= firstRun+n); runs B..R-1 close by
// periodic extension, and run R — the last, whose window runs to thread
// exhaustion plus the final probe step — contributes the delta of its
// phase-mate i* ≡ R (mod p): the probe step's count stands in for the
// phase-mate's next-run step, and thread 0's first iteration of run B
// (already counted when the boundary snapshot was taken) replaces the
// phase-mate's next-run iteration, hence one fewer.
func (ex *extrapolator) close(r *run, p int64) (bool, error) {
	res := r.res
	R := res.ChunkRunsTotal
	n := int64(len(ex.hist)) - 1
	B := ex.run // current run index (== firstRun + n)
	M := R - B  // whole runs between here and the start of run R
	if M < 0 {
		ex.off = true
		return false, nil
	}
	var sum exVec
	sum.byRef = make([]int64, len(ex.hist[0].byRef))
	ex.addPeriodic(&sum, n, p, M)
	// hist delta i holds the content of run firstRun+i-1; the final run's
	// phase-mate is the one in the last confirmed period with a congruent
	// run index.
	iStar := n - p + 1 + (R-(ex.firstRun+n-p))%p
	ex.addDelta(&sum, iStar)
	sum.iters--
	res.Extrapolated = true
	res.SimulatedRuns = B - 1
	res.ExtrapolationPeriod = p
	return true, ex.apply(r, &sum)
}
