package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/obsv"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/solver_golden.json from the current solver")

// TestSolverOutputGolden pins the solver's exact output bytes: for a grid of
// instances, modes, and seeds, the SHA-256 of the (R̂1, R̂2, V_Join)
// fingerprint must match the hashes recorded in testdata/solver_golden.json.
// The file was generated from the row-major evaluation path that predates the
// columnar substrate, so this test is the oracle that the columnar layer (and
// any later rework of the hot loops) changes performance only, never output.
//
// Regenerate deliberately with:
//
//	go test ./internal/core -run TestSolverOutputGolden -update-golden
func TestSolverOutputGolden(t *testing.T) {
	type instance struct {
		name  string
		in    func() Input
		modes []string // nil runs every mode
	}
	instances := []instance{
		{"paper", func() Input { return paperInput(t) }, nil},
		{"census-good", func() Input { return censusInput(t, 60, 24, true, false) }, nil},
		{"census-bad", func() Input { return censusInput(t, 60, 24, false, false) }, nil},
		// Partition sizes past 256 rows: all 18 partitions hold 279–359
		// rows and about 100 vertices take fresh colors.
		{"census-large", func() Input { return censusInput(t, 2000, 60, true, false) }, []string{"hybrid", "input-order"}},
		// One global conflict graph of 1833 rows and 441k edges.
		{"census-600", func() Input { return censusInput(t, 600, 60, true, false) }, []string{"no-partition"}},
	}
	modes := []struct {
		name string
		opt  Options
	}{
		{"hybrid", Options{}},
		{"ilp-only", Options{Mode: ModeILPOnly}},
		{"hasse-only", Options{Mode: ModeHasseOnly}},
		{"input-order", Options{Order: OrderInput}},
		{"no-partition", Options{NoPartition: true}},
		{"baseline", BaselineOptions(0)},
		{"baseline-marginals", BaselineMarginalsOptions(0)},
	}

	path := filepath.Join("testdata", "solver_golden.json")
	got := make(map[string]string)
	for _, inst := range instances {
		for _, mode := range modes {
			if inst.modes != nil && !slices.Contains(inst.modes, mode.name) {
				continue
			}
			for _, seed := range []int64{1, 7, 42} {
				opt := mode.opt
				opt.Seed = seed
				// Every golden solve runs with a live trace attached AND the
				// explain report requested: the hashes below were pinned
				// without either, so matching them here proves that span
				// recording and explain measurement never perturb output
				// bytes — for every instance, mode, and seed in the grid.
				tr := obsv.NewTrace(obsv.NewID(), "golden", "test")
				tr.RequestExplain()
				ctx := obsv.WithTrace(nil, tr)
				res, err := SolveOnContext(ctx, inst.in(), opt, PoolFor(opt))
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", inst.name, mode.name, seed, err)
				}
				if tr.SpanCount() < 4 {
					t.Fatalf("%s/%s seed %d: trace recorded %d spans, want >= 4 (compile + phases)", inst.name, mode.name, seed, tr.SpanCount())
				}
				ex := tr.Explain()
				if ex == nil {
					t.Fatalf("%s/%s seed %d: explain requested but no report on the trace", inst.name, mode.name, seed)
				}
				if ex.ViewRows == 0 || len(ex.CCs) == 0 || len(ex.Phases) == 0 {
					t.Fatalf("%s/%s seed %d: explain report is hollow: %+v", inst.name, mode.name, seed, ex)
				}
				fp := resultFingerprint(res)
				h := sha256.Sum256([]byte(fp[0] + "\x00" + fp[1] + "\x00" + fp[2]))
				got[fmt.Sprintf("%s/%s/seed=%d", inst.name, mode.name, seed)] = hex.EncodeToString(h[:])
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from golden file (regenerate with -update-golden)", k)
			continue
		}
		if got[k] != w {
			t.Errorf("%s: output hash %s, golden %s — solver output changed", k, got[k][:16], w[:16])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, test produced %d", len(want), len(got))
	}
}
