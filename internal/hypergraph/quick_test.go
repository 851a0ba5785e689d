package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// graphFromSpec builds a graph over n vertices from an opaque edge spec.
func graphFromSpec(n int, spec []uint16) *Graph {
	g := New(n)
	for i := 0; i+1 < len(spec); i += 2 {
		a, b := int(spec[i])%n, int(spec[i+1])%n
		if a != b {
			g.AddEdge(a, b)
		}
	}
	return g
}

// Property: ColoringLF output is always proper, every assigned color comes
// from the allowed list, and degree sums equal 2x the edge count.
func TestQuickColoringProper(t *testing.T) {
	f := func(spec []uint16, paletteSize uint8) bool {
		n := 12
		g := graphFromSpec(n, spec)
		k := int(paletteSize)%6 + 1
		palette := make([]int, k)
		for i := range palette {
			palette[i] = i
		}
		c, skipped := g.ColoringLF(NewColoring(n), func(int) []int { return palette })
		if !g.Proper(c) {
			return false
		}
		for v, col := range c {
			if col == Uncolored {
				found := false
				for _, s := range skipped {
					if s == v {
						found = true
					}
				}
				if !found {
					return false // uncolored vertex not reported skipped
				}
				continue
			}
			if col < 0 || col >= k {
				return false
			}
		}
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(v)
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: AddEdge is idempotent — inserting the same edge set twice in
// any order yields identical graphs.
func TestQuickAddEdgeIdempotent(t *testing.T) {
	f := func(spec []uint16) bool {
		n := 10
		if len(spec)%2 == 1 {
			spec = spec[:len(spec)-1] // keep pairs aligned when duplicated
		}
		g1 := graphFromSpec(n, spec)
		g2 := graphFromSpec(n, append(append([]uint16(nil), spec...), spec...))
		if g1.NumEdges() != g2.NumEdges() {
			return false
		}
		for a := 0; a < n; a++ {
			if g1.Degree(a) != g2.Degree(a) {
				return false
			}
			for b := 0; b < n; b++ {
				if g1.HasPair(a, b) != g2.HasPair(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a second ColoringLF pass over the skipped vertices with a
// disjoint fresh palette always completes the coloring (the Algorithm 4
// repair step), for any graph whose edges are binary.
func TestQuickFreshColorsAlwaysRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(14)
		g := New(n)
		for e := 0; e < rng.Intn(3*n); e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(a, b)
			}
		}
		base := []int{0}
		c, skipped := g.ColoringLF(NewColoring(n), func(int) []int { return base })
		fresh := make([]int, len(skipped))
		for i := range fresh {
			fresh[i] = i + 1
		}
		c, left := g.ColoringLF(c, func(int) []int { return fresh })
		if len(left) != 0 {
			t.Fatalf("trial %d: repair left %d vertices", trial, len(left))
		}
		if !g.Proper(c) {
			t.Fatalf("trial %d: improper after repair", trial)
		}
	}
}
