package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/hypergraph"
	"repro/internal/table"
)

// TestSweepMatchesBruteForce checks that the optimized conflict-edge
// enumeration (clique shortcut + sorted sweep) produces exactly the edge
// set of the definitional brute force (evaluate the DC predicate on every
// ordered pair) on random partitions and random Table-4-shaped DCs.
func TestSweepMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	for trial := 0; trial < 150; trial++ {
		// Random partition of persons.
		n := 3 + rng.Intn(40)
		r1 := table.NewRelation("R1", table.NewSchema(
			table.IntCol("pid"), table.IntCol("Age"), table.StrCol("Rel"), table.IntCol("fk")))
		rels := []string{"Owner", "Spouse", "Child"}
		for i := 0; i < n; i++ {
			r1.MustAppend(table.Int(int64(i)), table.Int(int64(rng.Intn(60))),
				table.String(rels[rng.Intn(len(rels))]), table.Null())
		}
		r2 := table.NewRelation("R2", table.NewSchema(table.IntCol("kid"), table.StrCol("X")))
		r2.MustAppend(table.Int(1), table.String("x"))

		// Random DC: pure-unary pair, or single binary with random op/offset.
		var src string
		switch rng.Intn(3) {
		case 0:
			src = fmt.Sprintf("dc: deny t1.Rel = '%s' & t2.Rel = '%s'",
				rels[rng.Intn(3)], rels[rng.Intn(3)])
		case 1:
			src = fmt.Sprintf("dc: deny t1.Rel = '%s' & t2.Age %s t1.Age - %d",
				rels[rng.Intn(3)], ops[rng.Intn(len(ops))], rng.Intn(30))
		default:
			src = fmt.Sprintf("dc: deny t2.Age %s t1.Age + %d",
				ops[rng.Intn(len(ops))], rng.Intn(20))
		}
		dc, err := constraint.ParseDC(src)
		if err != nil {
			t.Fatal(err)
		}

		in := Input{R1: r1, R2: r2, K1: "pid", K2: "kid", FK: "fk", DCs: []constraint.DC{dc}}
		var stat Stats
		p, err := newProb(in, Options{}, &stat)
		if err != nil {
			t.Fatal(err)
		}
		p.ensureDCCand()
		ph := &phase2{p: p, r2hat: r2.Clone(), fk: make([]table.Value, n),
			keyRows: map[table.Value][]int{}, fresh: newFreshKeys(r2, "kid")}

		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		g := hypergraph.New(n)
		ph.buildConflicts(g, rows)

		// Brute force.
		want := make(map[[2]int]bool)
		s := p.vjoin.Schema()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if dc.Holds(s, p.vjoin.Row(a), p.vjoin.Row(b)) {
					k := [2]int{min(a, b), max(a, b)}
					want[k] = true
				}
			}
		}
		got := make(map[[2]int]bool)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if g.HasPair(a, b) {
					got[[2]int{a, b}] = true
				}
			}
		}
		if g.NumEdges() != len(got) {
			t.Fatalf("trial %d (%s): NumEdges %d, %d pairs", trial, src, g.NumEdges(), len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s): %d edges, want %d", trial, src, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d (%s): missing edge %v", trial, src, k)
			}
		}
	}
}

// TestSweepableGuards: non-int columns and unknown columns fall back to
// the generic path.
func TestSweepableGuards(t *testing.T) {
	s := table.NewSchema(table.IntCol("Age"), table.StrCol("Rel"))
	if !sweepable(constraint.BinaryAtom{LCol: "Age", RCol: "Age", Op: table.OpLt}, s) {
		t.Error("int/int should sweep")
	}
	if sweepable(constraint.BinaryAtom{LCol: "Rel", RCol: "Age", Op: table.OpLt}, s) {
		t.Error("string column should not sweep")
	}
	if sweepable(constraint.BinaryAtom{LCol: "Ghost", RCol: "Age", Op: table.OpLt}, s) {
		t.Error("unknown column should not sweep")
	}
}
