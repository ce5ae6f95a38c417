// Command perfbench is the repository's benchmark: it boots a
// three-node fscluster in process, drives one workload through it as a
// closed loop of clients, checks every response against the library,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run additionally replays the same inputs straight into each
// layer's public function and reports the per-layer metrics.
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: analyze-cold, tune-lint-cold or service-hot")
	seed := fs.Int64("seed", pinSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase; sizes the fixed request count")
	trace := fs.Int("trace", 0, "1 replays the inputs into each layer and reports per-layer metrics")
	expected := fs.Bool("print-expected", false, "print the library's verdicts in expected.json's format and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *expected {
		if err := printExpected(ctx, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (analyze-cold, tune-lint-cold, service-hot), --seconds >= 1 and --trace 0|1: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d requests=%d clients=%d\n",
		w.name, *seed, *seconds, *trace, w.timedCount(*seconds), w.clients)
	res, err := execute(ctx, w, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, res, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the host block, one "name value unit" line per metric,
// and the result object as the last line.
func report(out io.Writer, res *result, traced bool) error {
	hb, err := json.Marshal(res.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "host %s\n", hb)
	metrics := res.endToEnd
	if traced {
		metrics = res.perLayer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
