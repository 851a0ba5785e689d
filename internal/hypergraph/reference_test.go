package hypergraph

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// refGraph is a plain edge-list hypergraph with the same contract as Graph:
// every edge is a sorted, deduplicated vertex set of size >= 2, stored once,
// with per-vertex incidence lists. It is the oracle for Graph's bit-matrix
// pair storage and shared coloring loop.
type refGraph struct {
	n     int
	edges [][]int
	inc   [][]int
	seen  map[string]bool
}

func newRef(n int) *refGraph {
	return &refGraph{n: n, inc: make([][]int, n), seen: map[string]bool{}}
}

func (r *refGraph) add(vs ...int) {
	set := append([]int(nil), vs...)
	sort.Ints(set)
	w := 0
	for i, v := range set {
		if i == 0 || v != set[i-1] {
			set[w] = v
			w++
		}
	}
	set = set[:w]
	key := ""
	for _, v := range set {
		key += strconv.Itoa(v) + ","
	}
	if len(set) < 2 || r.seen[key] {
		return
	}
	r.seen[key] = true
	for _, v := range set {
		r.inc[v] = append(r.inc[v], len(r.edges))
	}
	r.edges = append(r.edges, set)
}

func (r *refGraph) hasPair(a, b int) bool {
	for _, ei := range r.inc[a] {
		if e := r.edges[ei]; len(e) == 2 && (e[0] == b || e[1] == b) && a != b {
			return true
		}
	}
	return false
}

// color is Algorithm 3 over the edge list: visit the uncolored vertices
// (by descending degree, ties by index, when lf), forbid each color that
// colors all other vertices of an incident edge, take the first allowed
// color not forbidden.
func (r *refGraph) color(c Coloring, lf bool, allowed func(int) []int) (Coloring, []int) {
	var order []int
	for v := 0; v < r.n; v++ {
		if c[v] == Uncolored {
			order = append(order, v)
		}
	}
	if lf {
		sort.SliceStable(order, func(a, b int) bool {
			return len(r.inc[order[a]]) > len(r.inc[order[b]])
		})
	}
	var skipped []int
	for _, v := range order {
		forbidden := map[int]bool{}
		for _, ei := range r.inc[v] {
			cols := map[int]bool{}
			for _, u := range r.edges[ei] {
				if u != v {
					cols[c[u]] = true
				}
			}
			if len(cols) == 1 && !cols[Uncolored] {
				for col := range cols {
					forbidden[col] = true
				}
			}
		}
		for _, col := range allowed(v) {
			if !forbidden[col] {
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

func (r *refGraph) proper(c Coloring) bool {
	for _, e := range r.edges {
		mono := c[e[0]] != Uncolored
		for _, u := range e[1:] {
			mono = mono && c[u] == c[e[0]]
		}
		if mono {
			return false
		}
	}
	return true
}

// TestMatchesEdgeListReference builds random graphs mixing pairs and
// 3-vertex edges — with duplicates, self-loops and repeated vertices — on
// both sides of the 64-vertex word and 256-vertex sizes, pre-colors some
// vertices, gives every vertex its own allowed list, and requires Graph to
// agree with the edge-list reference on degrees, edge count, pair
// membership, properness, and both coloring orders including the
// fresh-color repair pass.
func TestMatchesEdgeListReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	sizes := []int{1, 2, 3, 17, 63, 64, 65, 128, 255, 256, 257, 300}
	for trial := 0; trial < 4*len(sizes); trial++ {
		n := sizes[trial%len(sizes)]
		g, ref := New(n), newRef(n)
		// Edge density varies per trial so some graphs are near-complete.
		ne := rng.Intn(1 + n*(1+trial%4)*3)
		for k := 0; k < ne; k++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				g.AddEdge(a, b, c)
				ref.add(a, b, c)
			case 1:
				g.AddEdge(a, b)
				ref.add(a, b)
			case 2:
				g.AddEdge(a, a, b) // normalizes to a pair or nothing
				ref.add(a, a, b)
			default:
				g.AddPair(a, b)
				ref.add(a, b)
			}
		}
		if g.NumEdges() != len(ref.edges) {
			t.Fatalf("trial %d n=%d: NumEdges %d, reference %d", trial, n, g.NumEdges(), len(ref.edges))
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != len(ref.inc[v]) {
				t.Fatalf("trial %d n=%d: Degree(%d) %d, reference %d", trial, n, v, g.Degree(v), len(ref.inc[v]))
			}
		}
		for k := 0; k < 4*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if g.HasPair(a, b) != ref.hasPair(a, b) {
				t.Fatalf("trial %d n=%d: HasPair(%d,%d) = %v", trial, n, a, b, g.HasPair(a, b))
			}
		}

		palette := 1 + rng.Intn(8)
		lists := make([][]int, n)
		for v := range lists {
			lists[v] = rng.Perm(palette)[:1+rng.Intn(palette)]
		}
		pre := NewColoring(n)
		for v := range pre {
			if rng.Intn(5) == 0 {
				pre[v] = rng.Intn(palette + 2)
			}
		}
		if g.Proper(pre) != ref.proper(pre) {
			t.Fatalf("trial %d n=%d: Proper(pre-coloring) disagrees", trial, n)
		}

		for _, lf := range []bool{true, false} {
			run := func(gr *Graph, c Coloring, allowed func(int) []int) (Coloring, []int) {
				if lf {
					return gr.ColoringLF(c, allowed)
				}
				return gr.ColoringInputOrder(c, allowed)
			}
			allowed := func(v int) []int { return lists[v] }
			got, gotSkip := run(g, append(Coloring(nil), pre...), allowed)
			want, wantSkip := ref.color(append(Coloring(nil), pre...), lf, allowed)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSkip, wantSkip) {
				t.Fatalf("trial %d n=%d lf=%v: coloring %v skipped %v, reference %v skipped %v", trial, n, lf, got, gotSkip, want, wantSkip)
			}
			if g.Proper(got) != ref.proper(got) {
				t.Fatalf("trial %d n=%d lf=%v: Proper disagrees", trial, n, lf)
			}
			// Algorithm 4's repair: skipped vertices get a fresh palette.
			fresh := make([]int, len(gotSkip))
			for i := range fresh {
				fresh[i] = palette + 2 + i
			}
			allowFresh := func(int) []int { return fresh }
			got, gotSkip = run(g, got, allowFresh)
			want, wantSkip = ref.color(want, lf, allowFresh)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSkip, wantSkip) {
				t.Fatalf("trial %d n=%d lf=%v: repair coloring differs from reference", trial, n, lf)
			}
		}
	}
}
