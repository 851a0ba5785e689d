package incr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/census"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/table"
)

// relFingerprint serializes a relation byte-for-byte (the golden_test.go
// hashing harness: name, schema, every cell in row order).
func relFingerprint(r *table.Relation) string {
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

func resultFingerprint(res *core.Result) [3]string {
	return [3]string{relFingerprint(res.R1Hat), relFingerprint(res.R2Hat), relFingerprint(res.VJoin)}
}

func censusInstance(hh, nCC int, seed int64) core.Input {
	d := census.Generate(census.Config{Households: hh, Areas: 6, Seed: seed})
	return core.Input{
		R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid",
		CCs: d.GoodCCs(nCC), DCs: census.AllDCs(),
	}
}

// applyDeltaCold materializes base∘d as a fresh input for the cold oracle.
func applyDeltaCold(t *testing.T, base core.Input, d Delta) core.Input {
	t.Helper()
	out := base
	out.R1 = base.R1.Clone()
	out.CCs = append([]constraint.CC(nil), base.CCs...)
	for i, tg := range d.CCTargets {
		out.CCs[i].Target = tg
	}
	for _, ed := range d.R1Edits {
		out.R1.Set(ed.Row, ed.Col, ed.Val)
	}
	for _, row := range d.R1Appends {
		out.R1.MustAppend(row...)
	}
	return out
}

// randomDelta draws a small change set of the serving shape: target nudges,
// attribute edits, occasional appended rows.
func randomDelta(rng *rand.Rand, base core.Input) Delta {
	var d Delta
	if rng.Intn(2) == 0 || len(base.CCs) == 0 {
		d.CCTargets = map[int]int64{}
		for k := 0; k < 1+rng.Intn(3) && len(base.CCs) > 0; k++ {
			i := rng.Intn(len(base.CCs))
			t := base.CCs[i].Target + int64(rng.Intn(7)-3)
			if t < 0 {
				t = 0
			}
			d.CCTargets[i] = t
		}
	}
	if rng.Intn(2) == 0 && base.R1.Len() > 0 {
		for k := 0; k < 1+rng.Intn(3); k++ {
			row := rng.Intn(base.R1.Len())
			switch rng.Intn(2) {
			case 0:
				d.R1Edits = append(d.R1Edits, CellEdit{Row: row, Col: "Age", Val: table.Int(int64(rng.Intn(90)))})
			default:
				rels := []string{"Owner", "Child", "Member"}
				d.R1Edits = append(d.R1Edits, CellEdit{Row: row, Col: "Rel", Val: table.String(rels[rng.Intn(len(rels))])})
			}
		}
	}
	if rng.Intn(3) == 0 {
		next := int64(100000 + rng.Intn(1000))
		for k := 0; k < 1+rng.Intn(2); k++ {
			d.R1Appends = append(d.R1Appends, []table.Value{
				table.Int(next + int64(k)), table.String("Member"),
				table.Int(int64(20 + rng.Intn(50))), table.Int(int64(rng.Intn(2))), table.Null(),
			})
		}
	}
	return d
}

// TestSessionDeltaEquivalence is the golden-equivalence property test: for
// a grid of instances, modes, and seeds, a warm session chased through
// randomized deltas must produce results byte-identical to cold solves of
// the equivalent patched inputs — including re-solving the base between
// deltas (the rebase path).
func TestSessionDeltaEquivalence(t *testing.T) {
	instances := []struct {
		name string
		in   core.Input
	}{
		{"census-40x16", censusInstance(40, 16, 11)},
		{"census-60x24", censusInstance(60, 24, 7)},
		{"census-30x8", censusInstance(30, 8, 3)},
	}
	modes := []struct {
		name string
		opt  core.Options
	}{
		{"hybrid", core.Options{}},
		{"ilp-only", core.Options{Mode: core.ModeILPOnly}},
		{"hasse-only", core.Options{Mode: core.ModeHasseOnly}},
		{"input-order", core.Options{Order: core.OrderInput}},
		{"no-partition", core.Options{NoPartition: true}},
		{"baseline", core.BaselineOptions(0)},
	}
	for _, inst := range instances {
		for _, mode := range modes {
			for _, seed := range []int64{1, 42} {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", inst.name, mode.name, seed), func(t *testing.T) {
					opt := mode.opt
					opt.Seed = seed
					rng := rand.New(rand.NewSource(seed * 31))

					sess, err := Open(inst.in, opt, nil)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					warmBase, err := sess.Solve()
					if err != nil {
						t.Fatalf("session solve: %v", err)
					}
					coldBase, err := core.Solve(inst.in, opt)
					if err != nil {
						t.Fatalf("cold solve: %v", err)
					}
					if resultFingerprint(warmBase) != resultFingerprint(coldBase) {
						t.Fatalf("base session solve differs from cold solve")
					}

					for round := 0; round < 4; round++ {
						d := randomDelta(rng, inst.in)
						warm, _, err := sess.Resolve(d)
						if err != nil {
							t.Fatalf("round %d: session resolve: %v", round, err)
						}
						cold, err := core.Solve(applyDeltaCold(t, inst.in, d), opt)
						if err != nil {
							t.Fatalf("round %d: cold solve: %v", round, err)
						}
						if resultFingerprint(warm) != resultFingerprint(cold) {
							t.Fatalf("round %d: delta solve differs from cold solve (delta %+v)", round, d)
						}
					}

					// Rebase back to the base instance: still identical.
					warmAgain, err := sess.Solve()
					if err != nil {
						t.Fatalf("re-solve base: %v", err)
					}
					if resultFingerprint(warmAgain) != resultFingerprint(coldBase) {
						t.Fatalf("re-solved base differs from cold solve")
					}
				})
			}
		}
	}
}

// TestSessionSplices asserts the delta path actually splices (the perf
// mechanism, not just the correctness contract): after a single CC target
// nudge on a partition-rich instance, most partitions must be reused and
// the compiled problem must be patched rather than rebuilt.
func TestSessionSplices(t *testing.T) {
	in := censusInstance(60, 24, 11)
	sess, err := Open(in, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	res, _, err := sess.Resolve(Delta{CCTargets: map[int]int64{0: in.CCs[0].Target + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ProbReused {
		t.Errorf("delta solve did not reuse the compiled problem")
	}
	if res.Stats.Partitions == 0 {
		t.Fatalf("instance produced no partitions; test is vacuous")
	}
	if res.Stats.SplicedPartitions == 0 {
		t.Errorf("delta solve spliced no partitions (of %d)", res.Stats.Partitions)
	}
	t.Logf("spliced %d of %d partitions", res.Stats.SplicedPartitions, res.Stats.Partitions)
}

// TestReappendedRowsAreDirty pins the truncate-then-reappend hazard: two
// consecutive deltas append different rows at the same recycled index; the
// second resolve must not splice colorings computed against the first
// append's values.
func TestReappendedRowsAreDirty(t *testing.T) {
	in := censusInstance(40, 16, 11)
	opt := core.Options{Seed: 1}
	sess, err := Open(in, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	mkRow := func(pid, age int64) []table.Value {
		return []table.Value{table.Int(pid), table.String("Member"), table.Int(age), table.Int(0), table.Null()}
	}
	dA := Delta{R1Appends: [][]table.Value{mkRow(90001, 50)}}
	if _, _, err := sess.Resolve(dA); err != nil {
		t.Fatal(err)
	}
	// Same index, very different age: the prior coloring of the partition
	// holding the appended row must not be replayed.
	dB := Delta{R1Appends: [][]table.Value{mkRow(90002, 7)}}
	warm, _, err := sess.Resolve(dB)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.Solve(applyDeltaCold(t, in, dB), opt)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(warm) != resultFingerprint(cold) {
		t.Fatalf("re-appended row splice divergence: warm result differs from cold")
	}
}

// TestDeltaValidation rejects malformed deltas.
func TestDeltaValidation(t *testing.T) {
	in := censusInstance(20, 8, 5)
	sess, err := Open(in, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Delta{
		{CCTargets: map[int]int64{len(in.CCs): 5}},
		{CCTargets: map[int]int64{0: -1}},
		{R1Edits: []CellEdit{{Row: in.R1.Len(), Col: "Age", Val: table.Int(1)}}},
		{R1Edits: []CellEdit{{Row: 0, Col: "nope", Val: table.Int(1)}}},
		{R1Edits: []CellEdit{{Row: 0, Col: "hid", Val: table.Int(1)}}},
		{R1Edits: []CellEdit{{Row: 0, Col: "Age", Val: table.String("x")}}},
		{R1Appends: [][]table.Value{{table.Int(1)}}},
	}
	for i, d := range bad {
		if _, _, err := sess.Resolve(d); err == nil {
			t.Errorf("bad delta %d accepted", i)
		}
	}
}

// TestPatchedFingerprint: the key computed without solving must equal the
// key Resolve returns for the same delta, and computing it must not disturb
// the session — the subsequent resolve stays byte-identical to the cold
// oracle.
func TestPatchedFingerprint(t *testing.T) {
	base := censusInstance(40, 12, 5)
	opt := core.Options{Seed: 9}
	s, err := Open(base, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if fp, err := s.PatchedFingerprint(Delta{}); err != nil || fp != s.BaseFingerprint() {
		t.Fatalf("zero delta: fp=%x err=%v, want base fingerprint", fp, err)
	}
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 8; iter++ {
		d := randomDelta(rng, base)
		pre, err := s.PatchedFingerprint(d)
		if err != nil {
			t.Fatalf("iter %d: patched fingerprint: %v", iter, err)
		}
		res, key, err := s.Resolve(d)
		if err != nil {
			t.Fatalf("iter %d: resolve: %v", iter, err)
		}
		if pre != key {
			t.Fatalf("iter %d: PatchedFingerprint %x != Resolve key %x", iter, pre, key)
		}
		// The pre-computed key must also match a from-scratch fingerprint of
		// the patched input, and the session must still match the cold oracle.
		cold := applyDeltaCold(t, base, d)
		want, err := core.Fingerprint(cold, opt)
		if err != nil {
			t.Fatal(err)
		}
		if pre != want {
			t.Fatalf("iter %d: fingerprint differs from cold oracle", iter)
		}
		coldRes, err := core.Solve(cold, opt)
		if err != nil {
			t.Fatalf("iter %d: cold solve: %v", iter, err)
		}
		if resultFingerprint(res) != resultFingerprint(coldRes) {
			t.Fatalf("iter %d: warm result diverged from cold after PatchedFingerprint", iter)
		}
	}
	// Invalid deltas are rejected without touching state.
	if _, err := s.PatchedFingerprint(Delta{CCTargets: map[int]int64{999: 1}}); err == nil {
		t.Fatal("out-of-range CC index accepted")
	}
}
