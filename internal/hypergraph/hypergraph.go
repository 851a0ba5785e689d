// Package hypergraph implements the conflict hypergraph (Def. 5.1) and the
// greedy largest-first list-coloring heuristic of Algorithm 3. Vertices
// stand for R1 tuples, hyperedges for tuple sets that would violate some
// foreign-key DC if assigned one FK value, and colors for candidate FK
// values.
//
// Pairs, the edges of every 2-variable DC and nearly all conflict edges,
// live in one symmetric n×⌈n/64⌉ adjacency bit matrix: n²/8 bytes per
// graph whatever the edge count, with constant-time dedup and neighbour
// scans by set bit. Edges over three or more vertices (K ≥ 3 DCs) are kept
// as sorted vertex lists with per-vertex incidence.
package hypergraph

import (
	"math/bits"
	"slices"
	"sort"
)

// Graph is a hypergraph over vertices 0..N-1.
type Graph struct {
	n     int
	words int      // ⌈n/64⌉, the length of one adjacency row
	adj   []uint64 // row-major n×words symmetric pair bits
	deg   []int    // deg[v] = pairs plus hyperedges containing v
	pairs int
	hyper [][]int         // edges over >= 3 vertices, each a sorted set
	hinc  [][]int         // hinc[v] = indices into hyper of edges containing v
	seen  map[string]bool // dedup for hyper (lazily allocated)
}

// New creates an empty hypergraph with n vertices.
func New(n int) *Graph {
	w := (n + 63) / 64
	return &Graph{n: n, words: w, adj: make([]uint64, n*w), deg: make([]int, n)}
}

// MatrixBytes is the size of the adjacency bit matrix New(n) allocates.
func MatrixBytes(n int) int64 { return int64(n) * int64((n+63)/64) * 8 }

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.pairs + len(g.hyper) }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return g.deg[v] }

// HasPair reports whether the 2-vertex edge {a, b} is present.
func (g *Graph) HasPair(a, b int) bool {
	return g.adj[a*g.words+b/64]&(1<<(b%64)) != 0
}

// AddEdge inserts an edge over the given vertices. Edges with repeated
// vertices are normalized by deduplication; edges of size < 2 after
// normalization, and duplicate edges, are ignored. Returns whether an edge
// was added.
func (g *Graph) AddEdge(vs ...int) bool {
	if len(vs) == 2 {
		return g.AddPair(vs[0], vs[1])
	}
	set := append([]int(nil), vs...)
	sort.Ints(set)
	set = slices.Compact(set)
	if len(set) < 2 {
		return false
	}
	if len(set) == 2 {
		return g.AddPair(set[0], set[1])
	}
	key := edgeKey(set)
	if g.seen[key] {
		return false
	}
	if g.seen == nil {
		g.seen = make(map[string]bool)
	}
	g.seen[key] = true
	if g.hinc == nil {
		g.hinc = make([][]int, g.n)
	}
	id := len(g.hyper)
	g.hyper = append(g.hyper, set)
	for _, v := range set {
		g.hinc[v] = append(g.hinc[v], id)
		g.deg[v]++
	}
	return true
}

// AddPair is AddEdge specialized to the dominant 2-vertex case: no variadic
// slice, no sort, and a bit test for dedup.
func (g *Graph) AddPair(a, b int) bool {
	if a == b || g.HasPair(a, b) {
		return false
	}
	g.adj[a*g.words+b/64] |= 1 << (b % 64)
	g.adj[b*g.words+a/64] |= 1 << (a % 64)
	g.deg[a]++
	g.deg[b]++
	g.pairs++
	return true
}

func edgeKey(set []int) string {
	b := make([]byte, 0, len(set)*4)
	for _, v := range set {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v), 0xff)
	}
	return string(b)
}

// Uncolored marks a vertex without a color in a Coloring.
const Uncolored = -1

// Coloring maps each vertex to a palette index, or Uncolored.
type Coloring []int

// NewColoring returns an all-uncolored coloring for n vertices.
func NewColoring(n int) Coloring {
	c := make(Coloring, n)
	for i := range c {
		c[i] = Uncolored
	}
	return c
}

// Proper reports whether the (partial) coloring violates no edge: an edge
// is violated when all of its vertices are colored with one color.
func (g *Graph) Proper(c Coloring) bool {
	for a := 0; a < g.n; a++ {
		if c[a] == Uncolored {
			continue
		}
		for w, word := range g.adj[a*g.words : (a+1)*g.words] {
			for ; word != 0; word &= word - 1 {
				if c[w*64+bits.TrailingZeros64(word)] == c[a] {
					return false
				}
			}
		}
	}
	for _, e := range g.hyper {
		if monoColor(c, e, -1) != Uncolored {
			return false
		}
	}
	return true
}

// monoColor returns the one color shared by every vertex of e other than
// skip, or Uncolored when one of them is uncolored or two differ.
func monoColor(c Coloring, e []int, skip int) int {
	col := Uncolored
	for _, u := range e {
		if u == skip {
			continue
		}
		cu := c[u]
		if cu == Uncolored || (col != Uncolored && col != cu) {
			return Uncolored
		}
		col = cu
	}
	return col
}

// ColoringLF is Algorithm 3: greedy largest-first list coloring. It colors
// the vertices of g that are uncolored in c, in non-increasing degree order
// (ties by index), assigning each the first color from its allowed list
// that is not forbidden. A color is forbidden for v when some incident edge
// has all its other vertices already colored with that color. Vertices
// whose entire list is forbidden are skipped and returned.
//
// allowed(v) returns the palette indices permitted for v, in preference
// order; the same slice may be shared between vertices. c is updated in
// place and also returned.
func (g *Graph) ColoringLF(c Coloring, allowed func(v int) []int) (Coloring, []int) {
	order := g.uncolored(c)
	slices.SortFunc(order, func(a, b int) int {
		if g.deg[a] != g.deg[b] {
			return g.deg[b] - g.deg[a]
		}
		return a - b
	})
	return g.color(c, order, allowed)
}

// ColoringInputOrder is the ablation variant of Algorithm 3 that visits the
// uncolored vertices in index order instead of by descending degree.
func (g *Graph) ColoringInputOrder(c Coloring, allowed func(v int) []int) (Coloring, []int) {
	return g.color(c, g.uncolored(c), allowed)
}

func (g *Graph) uncolored(c Coloring) []int {
	order := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if c[v] == Uncolored {
			order = append(order, v)
		}
	}
	return order
}

// color is the loop shared by both visit orders. Forbidden colors are
// marked in a palette-indexed slice stamped with the visit number, so it
// is never cleared between vertices.
func (g *Graph) color(c Coloring, order []int, allowed func(v int) []int) (Coloring, []int) {
	var skipped []int
	var stamp []int
	for i, v := range order {
		epoch := i + 1
		for w, word := range g.adj[v*g.words : (v+1)*g.words] {
			for ; word != 0; word &= word - 1 {
				if cu := c[w*64+bits.TrailingZeros64(word)]; cu != Uncolored {
					stamp = mark(stamp, cu, epoch)
				}
			}
		}
		if g.hinc != nil {
			for _, ei := range g.hinc[v] {
				if col := monoColor(c, g.hyper[ei], v); col != Uncolored {
					stamp = mark(stamp, col, epoch)
				}
			}
		}
		for _, col := range allowed(v) {
			if col >= len(stamp) || stamp[col] != epoch {
				c[v] = col
				break
			}
		}
		if c[v] == Uncolored {
			skipped = append(skipped, v)
		}
	}
	return c, skipped
}

// mark stamps col with epoch, growing stamp to cover col.
func mark(stamp []int, col, epoch int) []int {
	if col >= len(stamp) {
		stamp = append(stamp, make([]int, col+1-len(stamp))...)
	}
	stamp[col] = epoch
	return stamp
}
