package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
)

// Every run also checks the library against verdicts pinned for the
// default seed, so a model change that shifts results fails the
// benchmark instead of looking faster. Regenerate expected.json with
// --print-expected only when a result change is intended.
const (
	pinSeed = 1
	pinKeys = 32
)

//go:embed expected.json
var expectedJSON []byte

// pinnedRequests is the first pinKeys keys of w's default-seed run: the
// timed prefix for the cold workloads, the hot set's head for
// service-hot. Stream prefixes do not depend on the run length.
func pinnedRequests(w workload) []*request {
	in := w.gen(pinSeed, minTimed)
	idx := in.fill
	if len(idx) == 0 {
		idx = in.timed
	}
	out := make([]*request, pinKeys)
	for i := range out {
		out[i] = in.keys[idx[i]]
	}
	return out
}

func pinnedVerdicts(ctx context.Context, w workload) ([]string, error) {
	reqs := pinnedRequests(w)
	out := make([]string, len(reqs))
	var sp spans
	for i, r := range reqs {
		v, _, err := replay(ctx, r, &sp, false)
		if err != nil {
			return nil, fmt.Errorf("%s pinned request %d: %w", w.name, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// checkPinned reports whether the library still produces the pinned
// verdicts for w, describing every difference on diag.
func checkPinned(ctx context.Context, w workload, diag io.Writer) (bool, error) {
	var want map[string][]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return false, fmt.Errorf("expected.json: %w", err)
	}
	got, err := pinnedVerdicts(ctx, w)
	if err != nil {
		return false, err
	}
	if len(want[w.name]) != len(got) {
		fmt.Fprintf(diag, "perfbench: expected.json has %d verdicts for %s, want %d\n", len(want[w.name]), w.name, len(got))
		return false, nil
	}
	ok := true
	for i, g := range got {
		if g != want[w.name][i] {
			fmt.Fprintf(diag, "perfbench: %s pinned request %d: library %q, expected %q\n", w.name, i, g, want[w.name][i])
			ok = false
		}
	}
	return ok, nil
}

// printExpected writes the current verdicts in expected.json's format.
func printExpected(ctx context.Context, out io.Writer) error {
	all := map[string][]string{}
	for _, w := range workloads {
		v, err := pinnedVerdicts(ctx, w)
		if err != nil {
			return err
		}
		all[w.name] = v
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
