package hypergraph

import (
	"math/rand"
	"testing"
)

func allow(cols ...int) func(int) []int {
	return func(int) []int { return cols }
}

func TestAddEdgeDedupAndNormalize(t *testing.T) {
	g := New(4)
	if !g.AddEdge(2, 0) {
		t.Error("first edge rejected")
	}
	if g.AddEdge(0, 2) {
		t.Error("duplicate edge accepted")
	}
	if g.AddEdge(1, 1) {
		t.Error("self loop accepted")
	}
	if !g.AddEdge(1, 2, 3) {
		t.Error("hyperedge rejected")
	}
	if g.AddEdge(3, 2, 1, 1) {
		t.Error("duplicate hyperedge accepted")
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	if !g.HasPair(0, 2) || !g.HasPair(2, 0) || g.HasPair(1, 2) || g.HasPair(1, 1) {
		t.Error("pair membership wrong")
	}
	if g.Degree(2) != 2 || g.Degree(0) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(2), g.Degree(0))
	}
}

// TestFigure7Coloring reproduces Example 5.3: the Chicago partition of the
// paper's running example. Vertices 0..6 stand for pids 1..7. Edges: owners
// {0,1},{0,2},{0,3},{1,2},{1,3},{2,3}; spouse/owner age gap {1,4} (spouse 24
// vs owner 75); child constraints {1,5},{1,6} (multi-ling owner 75 with
// child 10 violates the upper age-gap DC), and {3,5},{3,6}? No: owner pid4
// is 25 years old, child age 10 is within [A-50, A-12] = [-25,13]; 10 <= 13
// so no conflict. The candidate colors are hids 1..4 (palette 0..3).
func TestFigure7Coloring(t *testing.T) {
	g := New(7)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j) // owner-owner clique
		}
	}
	g.AddEdge(1, 4) // owner 75 (multi) with spouse 24: 24 < 75-50
	g.AddEdge(0, 4) // owner 75 (pid1) with spouse 24
	g.AddEdge(1, 5) // multi-ling owner 75 with child 10: 10 > 75-12 is false; 10 < 75-50=25 true
	g.AddEdge(1, 6)
	c, skipped := g.ColoringLF(NewColoring(7), allow(0, 1, 2, 3))
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	if !g.Proper(c) {
		t.Fatalf("improper coloring %v", c)
	}
	// The four owners must use all four distinct colors.
	seen := map[int]bool{}
	for v := 0; v < 4; v++ {
		if seen[c[v]] {
			t.Errorf("owners share color: %v", c[:4])
		}
		seen[c[v]] = true
	}
}

func TestColoringRespectsAllowedLists(t *testing.T) {
	// Path 0-1-2 with lists {0}, {0,1}, {1}. Largest-first colors v1 (deg 2)
	// first with 0; v0's whole list {0} is then forbidden, so v0 is skipped
	// — exactly the situation Algorithm 4 repairs with fresh colors.
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	lists := [][]int{{0}, {0, 1}, {1}}
	c, skipped := g.ColoringLF(NewColoring(3), func(v int) []int { return lists[v] })
	if len(skipped) != 1 || skipped[0] != 0 {
		t.Fatalf("skipped = %v, want [0]", skipped)
	}
	for v, col := range c {
		if col == Uncolored {
			continue
		}
		okCol := false
		for _, a := range lists[v] {
			if a == col {
				okCol = true
			}
		}
		if !okCol {
			t.Errorf("v%d got color %d outside its list", v, col)
		}
	}
	if !g.Proper(c) {
		t.Error("improper")
	}
	if c[1] != 0 {
		t.Errorf("c[1] = %d, want 0 (largest-first, smallest color)", c[1])
	}
}

func TestColoringSkipsWhenListExhausted(t *testing.T) {
	// Triangle with a single shared color: two vertices must be skipped.
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	c, skipped := g.ColoringLF(NewColoring(3), allow(0))
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want 2 vertices", skipped)
	}
	if !g.Proper(c) {
		t.Error("improper partial coloring")
	}
	// Second pass with fresh colors colors the rest (Algorithm 4 lines 11-12).
	c, skipped = g.ColoringLF(c, allow(1, 2))
	if len(skipped) != 0 {
		t.Fatalf("second pass skipped = %v", skipped)
	}
	if !g.Proper(c) {
		t.Error("improper final coloring")
	}
}

func TestColoringExtendsPartial(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := NewColoring(3)
	c[0] = 5
	c, skipped := g.ColoringLF(c, allow(5, 6))
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	if c[0] != 5 {
		t.Error("pre-colored vertex changed")
	}
	if c[1] != 6 {
		t.Errorf("c[1] = %d, want 6", c[1])
	}
}

func TestHyperedgeSemantics(t *testing.T) {
	// A 3-edge forbids all-same color but allows two-same.
	g := New(3)
	g.AddEdge(0, 1, 2)
	c, skipped := g.ColoringLF(NewColoring(3), allow(0, 1))
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	if !g.Proper(c) {
		t.Fatal("improper")
	}
	// With one color only, the third vertex must be skipped.
	c2, skipped2 := g.ColoringLF(NewColoring(3), allow(0))
	if len(skipped2) != 1 {
		t.Errorf("skipped = %v, want 1", skipped2)
	}
	if !g.Proper(c2) {
		t.Error("improper")
	}
}

func TestProper(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	c := Coloring{0, 0}
	if g.Proper(c) {
		t.Error("monochromatic edge accepted")
	}
	c[1] = 1
	if !g.Proper(c) {
		t.Error("bichromatic edge rejected")
	}
	// Partially colored edges are never violations.
	if !g.Proper(Coloring{0, Uncolored}) {
		t.Error("partial edge flagged")
	}
}

func TestLargestFirstOrder(t *testing.T) {
	// A star: center degree 3, leaves degree 1. Largest-first colors the
	// center first with the smallest color.
	g := New(4)
	g.AddEdge(0, 3)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	c, _ := g.ColoringLF(NewColoring(4), allow(0, 1))
	if c[3] != 0 {
		t.Errorf("center color = %d, want 0 (colored first)", c[3])
	}
	for v := 0; v < 3; v++ {
		if c[v] != 1 {
			t.Errorf("leaf %d color = %d, want 1", v, c[v])
		}
	}
}

// Property: on random graphs with enough colors (max degree + 1), greedy
// list coloring never skips and is always proper.
func TestRandomGreedyAlwaysProperWithEnoughColors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		ne := rng.Intn(3 * n)
		for k := 0; k < ne; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(a, b)
			}
		}
		maxDeg := 0
		for v := 0; v < n; v++ {
			if g.Degree(v) > maxDeg {
				maxDeg = g.Degree(v)
			}
		}
		palette := make([]int, maxDeg+1)
		for i := range palette {
			palette[i] = i
		}
		c, skipped := g.ColoringLF(NewColoring(n), func(int) []int { return palette })
		if len(skipped) != 0 {
			t.Fatalf("trial %d: skipped with %d colors, max degree %d", trial, len(palette), maxDeg)
		}
		if !g.Proper(c) {
			t.Fatalf("trial %d: improper", trial)
		}
	}
}

// Property: input-order variant is also proper (may skip more).
func TestInputOrderProper(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		g := New(n)
		for k := 0; k < 2*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(a, b)
			}
		}
		c, _ := g.ColoringInputOrder(NewColoring(n), allow(0, 1, 2))
		if !g.Proper(c) {
			t.Fatalf("trial %d: improper", trial)
		}
	}
}
