package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/table"
)

// fingerprint serializes a relation — schema, name, and every cell in row
// order — so two results can be compared byte-for-byte.
func fingerprint(r *table.Relation) string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte('|')
	b.WriteString(strings.Join(r.Schema().Names(), ","))
	for i := 0; i < r.Len(); i++ {
		b.WriteByte('\n')
		b.WriteString(table.EncodeKey(r.Row(i)...))
	}
	return b.String()
}

func resultFingerprint(res *Result) [3]string {
	return [3]string{fingerprint(res.R1Hat), fingerprint(res.R2Hat), fingerprint(res.VJoin)}
}

// TestParallelMatchesSequential pins the determinism claim end to end: for
// several seeds, instance shapes, and solver modes, running with a worker
// pool (fixed size and GOMAXPROCS) produces output byte-identical to the
// sequential path across R̂1, R̂2, and V_Join — covering the
// block-decomposed ILP and the streamed phase-2 coloring.
func TestParallelMatchesSequential(t *testing.T) {
	type instance struct {
		name string
		in   func() Input
	}
	instances := []instance{
		{"paper", func() Input { return paperInput(t) }},
		{"census-good", func() Input { return censusInput(t, 60, 24, true, false) }},
		{"census-bad", func() Input { return censusInput(t, 60, 24, false, false) }},
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
	}
	for _, inst := range instances {
		for _, mode := range modes {
			for _, seed := range []int64{1, 7, 42} {
				opt := mode.opt
				opt.Seed = seed
				opt.Workers = 0
				seq, err := Solve(inst.in(), opt)
				if err != nil {
					t.Fatalf("%s/%s seed %d sequential: %v", inst.name, mode.name, seed, err)
				}
				want := resultFingerprint(seq)
				for _, workers := range []int{4, -1} {
					opt.Workers = workers
					par, err := Solve(inst.in(), opt)
					if err != nil {
						t.Fatalf("%s/%s seed %d workers %d: %v", inst.name, mode.name, seed, workers, err)
					}
					if got := resultFingerprint(par); got != want {
						for k, label := range []string{"R1Hat", "R2Hat", "VJoin"} {
							if got[k] != want[k] {
								t.Errorf("%s/%s seed %d workers %d: %s differs from sequential",
									inst.name, mode.name, seed, workers, label)
							}
						}
					}
				}
			}
		}
	}
}

func TestSolveBatchMatchesIndividualSolves(t *testing.T) {
	inputs := []Input{paperInput(t), censusInput(t, 60, 24, true, false), censusInput(t, 60, 24, false, false)}
	opt := Options{Seed: 3, Workers: 4}
	batch, err := SolveBatch(context.Background(), inputs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(inputs) {
		t.Fatalf("got %d results for %d inputs", len(batch), len(inputs))
	}
	solo := []Input{paperInput(t), censusInput(t, 60, 24, true, false), censusInput(t, 60, 24, false, false)}
	for i := range solo {
		want, err := Solve(solo[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] == nil {
			t.Fatalf("instance %d: nil result", i)
		}
		if resultFingerprint(batch[i]) != resultFingerprint(want) {
			t.Errorf("instance %d: batch result differs from standalone Solve", i)
		}
	}
}

func TestSolveBatchIsolatesInstanceErrors(t *testing.T) {
	bad := paperInput(t)
	bad.K1 = "no-such-column"
	inputs := []Input{paperInput(t), bad, paperInput(t)}
	results, err := SolveBatch(context.Background(), inputs, Options{Seed: 1, Workers: 2})
	if err == nil {
		t.Fatal("expected an error for the broken instance")
	}
	if !strings.Contains(err.Error(), "instance 1") {
		t.Errorf("error not annotated with instance index: %v", err)
	}
	if results[1] != nil {
		t.Error("broken instance produced a result")
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil {
			t.Errorf("healthy instance %d lost its result", i)
		}
	}
}

func TestSolveBatchHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := []Input{paperInput(t), paperInput(t)}
	results, err := SolveBatch(ctx, inputs, Options{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("instance %d ran despite cancelled context", i)
		}
	}
}

func TestSolveBatchEmpty(t *testing.T) {
	results, err := SolveBatch(context.Background(), nil, Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("results = %v, err = %v", results, err)
	}
}

// TestStatsTimerConsistency pins the satellite fix: the coloring timer is a
// strict component of Phase2, and Phase1 + Phase2 never exceed Total.
func TestStatsTimerConsistency(t *testing.T) {
	in := censusInput(t, 60, 24, true, false)
	res, err := Solve(in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Coloring <= 0 || s.Phase2 <= 0 {
		t.Fatalf("timers not populated: %+v", s)
	}
	if s.Coloring > s.Phase2 {
		t.Errorf("Coloring (%v) > Phase2 (%v)", s.Coloring, s.Phase2)
	}
	if s.Phase1+s.Phase2 > s.Total {
		t.Errorf("Phase1 (%v) + Phase2 (%v) > Total (%v)", s.Phase1, s.Phase2, s.Total)
	}
}
