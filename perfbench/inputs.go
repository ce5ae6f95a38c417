package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/kernels"
)

// Endpoint paths the benchmark drives.
const (
	pathAnalyze = "/v1/analyze"
	pathLint    = "/v1/lint"
	pathTune    = "/v1/tune"
)

// wireRequest is the JSON body of one analyze, lint or tune call. Only
// documented wire fields are set, so the benchmark depends on the HTTP
// contract rather than the service's Go types.
type wireRequest struct {
	Source   string `json:"source"`
	Machine  string `json:"machine,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Chunk    int64  `json:"chunk,omitempty"`
	MESI     bool   `json:"mesi,omitempty"`
	HotLines bool   `json:"hot_lines,omitempty"`
}

// request is one generated service call.
type request struct {
	path string
	wire wireRequest
	body []byte
	// key stands in for the service's content key in the cache and
	// rendezvous replays: a hex SHA-256, like the real one.
	key string
}

func newRequest(path string, w wireRequest) *request {
	body, err := json.Marshal(w)
	if err != nil {
		panic(err) // a struct of strings, ints and bools always marshals
	}
	sum := sha256.Sum256(append([]byte(path+"\x00"), body...))
	return &request{path: path, wire: w, body: body, key: hex.EncodeToString(sum[:])}
}

// inputs is everything one run sends. Timed request i is
// keys[timed[i]]; for the cold workloads every timed entry is its own
// key, for service-hot the timed entries index the hot set.
type inputs struct {
	keys []*request
	// fill lists keys evaluated during set-up before the warm-up (the
	// service-hot hot set); warm lists the untimed warm-up requests.
	fill  []int
	warm  []int
	timed []int
}

// Stream seeds: each stream of a run draws from its own generator, so
// the timed sequence for a seed does not depend on the warm-up's length
// and its prefix is the same for every request count.
const (
	streamTimed = 1
	streamWarm  = 2
	streamHot   = 3
)

func streamRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

// stratified draws requests class by class: every round visits each
// class once in a seeded order, so each run holds the same mix of
// request kinds and only sizes, order and unit names move with the
// seed. Keys are distinct across everything the seen set has produced.
type stratified struct {
	rng     *rand.Rand
	seen    map[string]bool
	classes int
	perm    []int
	pos     int
	make    func(rng *rand.Rand, class int) *request
}

func (s *stratified) next() *request {
	slot := s.pos % s.classes
	if slot == 0 {
		s.perm = s.rng.Perm(s.classes)
	}
	s.pos++
	return s.draw(s.perm[slot])
}

// spread draws n requests whose classes sit evenly over the class grid
// (n must divide the class count).
func (s *stratified) spread(n int) []*request {
	step := s.classes / n
	out := make([]*request, n)
	for k := range out {
		out[k] = s.draw(k*step + k%step)
	}
	return out
}

// draw makes one request of class, redrawing on the (unlikely) repeat of
// an earlier key.
func (s *stratified) draw(class int) *request {
	for {
		if r := s.make(s.rng, class); !s.seen[r.key] {
			s.seen[r.key] = true
			return r
		}
	}
}

// unitHeader names the translation unit a request analyzes. The service
// keys its cache by the whole source text, so a fresh unit name makes a
// cold key without changing the work; sizes then stay in narrow bands,
// and a request's cost depends on its class rather than on the seed.
func unitHeader(rng *rand.Rand) string {
	return fmt.Sprintf("/* unit %016x */\n", rng.Uint64())
}

// Analyze classes: kernel × threads × chunk × counting mode. The first
// three are the paper-kernel grid; of the four mode slots, two count
// with MESI, one with the paper's phi and one with phi plus hot-line
// attribution.
var (
	analyzeKernels = []string{"heat", "dft", "linreg", "matmul"}
	analyzeThreads = []int{8, 16, 48}
	analyzeChunks  = []int64{1, 2, 4, 8, 16, 64}
)

const analyzeModes = 4

func analyzeStream(rng *rand.Rand, seen map[string]bool) *stratified {
	return &stratified{
		rng:     rng,
		seen:    seen,
		classes: len(analyzeKernels) * len(analyzeThreads) * len(analyzeChunks) * analyzeModes,
		make:    makeAnalyze,
	}
}

// makeAnalyze renders one paper kernel at a seeded size.
func makeAnalyze(rng *rand.Rand, class int) *request {
	mode := class % analyzeModes
	class /= analyzeModes
	chunk := analyzeChunks[class%len(analyzeChunks)]
	class /= len(analyzeChunks)
	threads := analyzeThreads[class%len(analyzeThreads)]
	var src string
	switch analyzeKernels[class/len(analyzeThreads)] {
	case "heat":
		src = kernels.HeatSource(int64(32+rng.Intn(4)), int64(896+16*rng.Intn(4)))
	case "dft":
		src = kernels.DFTSource(int64(140 + rng.Intn(8)))
	case "linreg":
		src = kernels.LinRegSource(int64(152+4*rng.Intn(4)), 576, threads)
	case "matmul":
		src = kernels.MatMulSource(int64(36 + rng.Intn(4)))
	}
	return newRequest(pathAnalyze, wireRequest{
		Source:   unitHeader(rng) + src,
		Threads:  threads,
		Chunk:    chunk,
		MESI:     mode%2 == 1,
		HotLines: mode == 2,
	})
}

// Lint and tune classes: endpoint × machine × schedule chunk × team
// size × template. The templates are parameterized forms of
// examples/lint, examples/tune and testdata.
var (
	tlMachines = []string{"paper48", "smalltest", "modern16"}
	tlChunks   = []int{1, 2, 3, 4, 8, 16}
	tlThreads  = []int{4, 8, 16}
	// Two tune slots per lint slot: a lint request is a few tens of
	// microseconds of library work, so a lint-heavy mix would measure
	// the service's per-request overhead rather than the front end and
	// the tuner.
	tlPaths = []string{pathLint, pathTune, pathTune}
)

var tlTemplates = []func(rng *rand.Rand, clauses string) string{
	histogramSource,
	statsSource,
	accumulatorsSource,
	heatTuneSource,
	dftTuneSource,
	linregTuneSource,
	stencilSource,
}

var tuneLintClasses = len(tlPaths) * len(tlMachines) * len(tlChunks) * len(tlThreads) * len(tlTemplates)

func tuneLintStream(rng *rand.Rand, seen map[string]bool) *stratified {
	return &stratified{rng: rng, seen: seen, classes: tuneLintClasses, make: makeTuneLint}
}

func makeTuneLint(rng *rand.Rand, class int) *request {
	path := tlPaths[class%len(tlPaths)]
	class /= len(tlPaths)
	mach := tlMachines[class%len(tlMachines)]
	class /= len(tlMachines)
	chunk := tlChunks[class%len(tlChunks)]
	class /= len(tlChunks)
	threads := tlThreads[class%len(tlThreads)]
	template := tlTemplates[class/len(tlThreads)]
	clauses := fmt.Sprintf("schedule(static,%d) num_threads(%d)", chunk, threads)
	return newRequest(path, wireRequest{Source: unitHeader(rng) + template(rng, clauses), Machine: mach})
}

// histogramSource varies examples/lint/histogram_fs.c and testdata/victim.c.
func histogramSource(rng *rand.Rand, clauses string) string {
	return fmt.Sprintf(`/* per-bin accumulation */
#define N %d

double counts[N];
double samples[N];

#pragma omp parallel for private(i) %s
for (i = 0; i < N; i++)
    counts[i] += samples[i] * samples[i];
`, 4096+64*rng.Intn(4), clauses)
}

// statsSource varies examples/lint/stats_structs.c and stats_padded.c:
// the struct's field count and tail padding change its line layout.
func statsSource(rng *rand.Rand, clauses string) string {
	fields := 2 + rng.Intn(5)
	var decl, body strings.Builder
	for f := 0; f < fields; f++ {
		fmt.Fprintf(&decl, " double f%d;", f)
		if f%2 == 0 {
			fmt.Fprintf(&body, "    stats[j].f%d += obs[j];\n", f)
		} else {
			fmt.Fprintf(&body, "    stats[j].f%d += obs[j] * obs[j];\n", f)
		}
	}
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&decl, " double pad[%d];", 8-fields)
	}
	return fmt.Sprintf(`/* per-task statistics */
#define TASKS %d

struct Stat {%s };

struct Stat stats[TASKS];
double obs[TASKS];

#pragma omp parallel for private(j) %s
for (j = 0; j < TASKS; j++) {
%s}
`, 1024+32*rng.Intn(4), decl.String(), clauses, body.String())
}

// accumulatorsSource varies testdata/accumulators.c and its padded twin.
func accumulatorsSource(rng *rand.Rand, clauses string) string {
	pad := ""
	if rng.Intn(3) == 0 {
		pad = " double pad[3];"
	}
	return fmt.Sprintf(`/* Fig. 1 accumulator structs */
#define TASKS %d
#define POINTS %d

struct Acc { double sx; double sxx; double sy; double syy; double sxy;%s };

struct Acc acc[TASKS];
double px[TASKS][POINTS];
double py[TASKS][POINTS];

#pragma omp parallel for private(i, j) %s
for (j = 0; j < TASKS; j++)
  for (i = 0; i < POINTS; i++) {
    acc[j].sx  += px[j][i];
    acc[j].sxx += px[j][i] * px[j][i];
    acc[j].sy  += py[j][i];
    acc[j].syy += py[j][i] * py[j][i];
    acc[j].sxy += px[j][i] * py[j][i];
  }
`, 256+16*rng.Intn(4), 48, pad, clauses)
}

// heatTuneSource varies examples/tune/heat.c.
func heatTuneSource(rng *rand.Rand, clauses string) string {
	return fmt.Sprintf(`/* Jacobi sweep */
#define M %d
#define N %d

double A[M][N];
double B[M][N];

for (j = 1; j < M - 1; j++) {
    #pragma omp parallel for private(i) %s
    for (i = 8; i < N - 8; i++) {
        B[j][i] = 0.25 * (A[j][i - 1] + A[j][i + 1] + A[j - 1][i] + A[j + 1][i]);
    }
}
`, 24+rng.Intn(4), 768+16*rng.Intn(4), clauses)
}

// dftTuneSource varies examples/tune/dft.c.
func dftTuneSource(rng *rand.Rand, clauses string) string {
	return fmt.Sprintf(`/* DFT accumulation */
#define N %d

double x[N];
double Xre[N];
double Xim[N];
double costab[N][N];
double sintab[N][N];

for (k = 0; k < N; k++) {
    #pragma omp parallel for private(n) %s
    for (n = 0; n < N; n++) {
        Xre[n] += x[k] * costab[k][n];
        Xim[n] -= x[k] * sintab[k][n];
    }
}
`, 120+4*rng.Intn(4), clauses)
}

// linregTuneSource varies examples/tune/linreg.c.
func linregTuneSource(rng *rand.Rand, clauses string) string {
	return fmt.Sprintf(`/* linear regression partial sums */
#define N %d
#define K %d

struct Point { double x; double y; };
struct Args { double sx; double sxx; double sy; double syy; double sxy; };

struct Args tid_args[N];
struct Point points[N][K];

#pragma omp parallel for private(i,j) %s
for (j = 0; j < N; j++) {
    for (i = 0; i < K; i++) {
        tid_args[j].sx += points[j][i].x;
        tid_args[j].sxx += points[j][i].x * points[j][i].x;
        tid_args[j].sy += points[j][i].y;
        tid_args[j].syy += points[j][i].y * points[j][i].y;
        tid_args[j].sxy += points[j][i].x * points[j][i].y;
    }
}
`, 64+4*rng.Intn(4), 48, clauses)
}

// stencilSource varies testdata/stencil.c.
func stencilSource(rng *rand.Rand, clauses string) string {
	return fmt.Sprintf(`/* inner-parallel five-point stencil */
#define M %d
#define N %d

double A[M][N];
double B[M][N];

for (j = 1; j < M - 1; j++)
  #pragma omp parallel for private(i) %s
  for (i = 1; i < N - 1; i++)
    B[j][i] = 0.25 * (A[j][i-1] + A[j][i+1] + A[j-1][i] + A[j+1][i]);
`, 24+rng.Intn(4), 768+32*rng.Intn(4), clauses)
}

// Hot-set shape for service-hot: the rank pattern interleaves the three
// endpoints so the hottest keys have the same kinds on every seed.
const (
	hotKeys    = 144
	hotPattern = "alatal"
	zipfS      = 1.0
)

// zipf draws ranks 0..n-1 with probability proportional to 1/(r+1)^s.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	z := &zipf{rng: rng, cdf: make([]float64, n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)
}
