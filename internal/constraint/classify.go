package constraint

import "sort"

// Relationship is the outcome of comparing two CCs under Definitions
// 4.2–4.4 of the paper.
type Relationship uint8

const (
	// RelDisjoint: the R1 parts are disjoint, or the R1 parts are identical
	// and the R2 parts are disjoint (Def. 4.2). Disjoint CCs never compete
	// for V_Join tuples.
	RelDisjoint Relationship = iota
	// RelAContainsB: b ⊆ a (Def. 4.3): b's predicate uses a superset of a's
	// attributes and is at least as restrictive on each common attribute.
	RelAContainsB
	// RelBContainsA: a ⊆ b.
	RelBContainsA
	// RelEqual: mutual containment (identical predicates up to
	// normalization).
	RelEqual
	// RelIntersecting: neither disjoint nor related by containment
	// (Def. 4.4). Intersecting CCs are routed to the ILP in the hybrid.
	RelIntersecting
)

func (r Relationship) String() string {
	switch r {
	case RelDisjoint:
		return "disjoint"
	case RelAContainsB:
		return "a⊇b"
	case RelBContainsA:
		return "a⊆b"
	case RelEqual:
		return "equal"
	case RelIntersecting:
		return "intersecting"
	default:
		return "unknown"
	}
}

// normCC is a CC's predicate compiled for pairwise classification: the
// per-column ranges of Normalize flattened into a name-sorted slice with the
// R1/R2 split precomputed. Every pairwise operation is then a linear merge
// over two sorted slices with zero allocations, so classifying a CC set
// normalizes each predicate once instead of once per pair.
type normCC struct {
	ok    bool // conjunctive and range-representable
	empty bool
	cols  []normCol
}

type normCol struct {
	name string
	isR2 bool
	r    ColRange
}

func normalizeCC(cc CC, isR2 func(col string) bool) normCC {
	// Disjunctive CCs are not range-representable per column; route them to
	// the ILP by classifying conservatively.
	if cc.IsDisjunctive() {
		return normCC{}
	}
	ranges, ok := Normalize(cc.Pred)
	if !ok {
		return normCC{}
	}
	n := normCC{ok: true, cols: make([]normCol, 0, len(ranges))}
	//lint:ordered isR2 is a pure column classifier and cols is sorted by name below
	for c, r := range ranges {
		if r.Empty {
			n.empty = true
		}
		n.cols = append(n.cols, normCol{name: c, isR2: isR2(c), r: r})
	}
	sort.Slice(n.cols, func(a, b int) bool { return n.cols[a].name < n.cols[b].name })
	return n
}

// Classify compares two CCs. isR2 identifies columns that belong to R2 (the
// dimension relation); everything else is treated as an R1 attribute.
// Predicates that cannot be normalized into per-column ranges are labeled
// intersecting, the conservative choice (they go to the ILP path).
func Classify(a, b CC, isR2 func(col string) bool) Relationship {
	na, nb := normalizeCC(a, isR2), normalizeCC(b, isR2)
	return classifyNorm(&na, &nb)
}

func classifyNorm(a, b *normCC) Relationship {
	if !a.ok || !b.ok {
		return RelIntersecting
	}
	// A CC whose predicate admits no tuple competes with nothing.
	if a.empty || b.empty {
		return RelDisjoint
	}

	r1Disjoint := partsDisjoint(a.cols, b.cols, false)
	r1Identical := partsIdentical(a.cols, b.cols, false)
	r2Disjoint := partsDisjoint(a.cols, b.cols, true)
	if r1Disjoint || (r1Identical && r2Disjoint) {
		return RelDisjoint
	}

	bInA := contains(a.cols, b.cols) // b ⊆ a: attrs(a) ⊆ attrs(b), ranges of b ⊆ ranges of a
	aInB := contains(b.cols, a.cols)
	switch {
	case bInA && aInB:
		return RelEqual
	case bInA:
		return RelAContainsB
	case aInB:
		return RelBContainsA
	default:
		return RelIntersecting
	}
}

// partsDisjoint reports whether some column of the selected part (R2 when
// wantR2, R1 otherwise) is constrained by both predicates to disjoint
// ranges. Both column lists are name-sorted, so this is a merge scan.
func partsDisjoint(a, b []normCol, wantR2 bool) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].name < b[j].name:
			i++
		case a[i].name > b[j].name:
			j++
		default:
			if a[i].isR2 == wantR2 && a[i].r.Disjoint(b[j].r) {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// partsIdentical reports whether both predicates constrain exactly the same
// columns of the part to exactly the same ranges.
func partsIdentical(a, b []normCol, wantR2 bool) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].name < b[j].name:
			if a[i].isR2 == wantR2 {
				return false
			}
			i++
		case a[i].name > b[j].name:
			if b[j].isR2 == wantR2 {
				return false
			}
			j++
		default:
			if a[i].isR2 == wantR2 && !a[i].r.EqualRange(b[j].r) {
				return false
			}
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		if a[i].isR2 == wantR2 {
			return false
		}
	}
	for ; j < len(b); j++ {
		if b[j].isR2 == wantR2 {
			return false
		}
	}
	return true
}

// contains reports whether the predicate normalized as "inner" is contained
// in the one normalized as "outer" per Def. 4.3: every column constrained
// by outer is also constrained by inner (inner uses a superset of
// attributes), and on those columns inner's range is a subset of outer's.
func contains(outer, inner []normCol) bool {
	j := 0
	for i := range outer {
		for j < len(inner) && inner[j].name < outer[i].name {
			j++
		}
		if j >= len(inner) || inner[j].name != outer[i].name || !inner[j].r.Subset(outer[i].r) {
			return false
		}
		j++
	}
	return true
}

// ClassifyAll computes the full pairwise relationship matrix for a CC set.
// The result is symmetric up to orientation: m[i][j] == RelAContainsB iff
// m[j][i] == RelBContainsA. This is the "pairwise comparison" stage whose
// runtime Figure 13 reports. Each CC's predicate is normalized once, so the
// quadratic pair loop does no allocation.
func ClassifyAll(ccs []CC, isR2 func(col string) bool) [][]Relationship {
	n := len(ccs)
	norm := make([]normCC, n)
	for i, cc := range ccs {
		norm[i] = normalizeCC(cc, isR2)
	}
	m := make([][]Relationship, n)
	for i := range m {
		m[i] = make([]Relationship, n)
		m[i][i] = RelEqual
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := classifyNorm(&norm[i], &norm[j])
			m[i][j] = r
			m[j][i] = flip(r)
		}
	}
	return m
}

func flip(r Relationship) Relationship {
	switch r {
	case RelAContainsB:
		return RelBContainsA
	case RelBContainsA:
		return RelAContainsB
	default:
		return r
	}
}
