package core

import (
	"repro/internal/constraint"
	"repro/internal/hasse"
)

// runHasse is Algorithm 2: complete V_Join for a set of non-intersecting
// CCs organized in a Hasse forest. ccIdx lists the CC indices (into
// p.in.CCs) participating; forest was built over exactly those CCs in the
// same order. Shortfalls (fewer available tuples than a target) are
// tolerated; they surface later as CC error. It runs serially even with a
// worker pool: maximal subtrees can compete for the same unfilled rows, so
// a concurrent fill would need speculation and ordered replay, and phase I
// is too small a share of a solve to repay that.
func (p *prob) runHasse(ccIdx []int, forest *hasse.Forest) {
	for _, d := range forest.Diagrams {
		for _, m := range d.Maximal {
			p.solveDiagram(ccIdx, forest, m)
		}
	}
}

// solveDiagram processes the sub-diagram rooted at local node `node`
// bottom-up: children first (recursively), then the remaining tuples of the
// root's own target.
func (p *prob) solveDiagram(ccIdx []int, forest *hasse.Forest, node int) {
	children := forest.Children[node]
	for _, c := range children {
		p.solveDiagram(ccIdx, forest, c)
	}
	cc := ccIdx[node]
	need := p.in.CCs[cc].Target
	for _, c := range children {
		need -= p.in.CCs[ccIdx[c]].Target
	}
	if need <= 0 {
		return
	}
	// Children's full predicates must be avoided so the root's extra tuples
	// do not inflate child counts (σ_m ∧ ¬σ_c, lines 12–13).
	avoidR1 := make([]int, 0, len(children))
	for _, c := range children {
		avoidR1 = append(avoidR1, ccIdx[c])
	}
	p.fillForCC(cc, need, avoidR1)
}

// fillForCC assigns up to need unfilled V_Join tuples a combo that
// satisfies CC cc's R2 part, choosing tuples satisfying its R1 part, while
// avoiding the full predicates of the listed CCs. Candidate tuples come
// from the columnar index (posting-list driven for equality atoms) in
// ascending row order — the same visit order as a full scan.
func (p *prob) fillForCC(cc int, need int64, avoid []int) {
	if need <= 0 {
		return
	}
	// Candidate combos for this CC, fixed order for determinism.
	var combosOK []int
	for c := range p.combos {
		if !p.ccComboMatch[cc][0][c] {
			continue
		}
		combosOK = append(combosOK, c)
	}
	if len(p.usedBCols) == 0 {
		return // nothing to assign; CC counts are fixed by R1 alone
	}
	if len(combosOK) == 0 {
		return // no active combo can realize this CC: unavoidable error
	}
	assigned := int64(0)
	comboCursor := 0
	p.colView.SelectFunc(p.ccR1b[cc][0], func(i int) bool {
		if p.filled(i) {
			return true
		}
		// Pick the first combo that avoids every child predicate for this
		// tuple, starting from a rotating cursor to spread assignments.
		chosen := -1
		for k := 0; k < len(combosOK); k++ {
			c := combosOK[(comboCursor+k)%len(combosOK)]
			if p.comboAvoids(i, c, avoid) {
				chosen = c
				comboCursor = (comboCursor + k + 1) % len(combosOK)
				break
			}
		}
		if chosen < 0 {
			return true
		}
		p.assignCombo(i, chosen)
		assigned++
		return assigned < need
	})
}

// comboAvoids reports whether assigning combo c to row i keeps the row out
// of every avoided CC's selection (¬σ_c of Algorithm 2). It depends only on
// immutable predicate/combo state, never on the fill state.
func (p *prob) comboAvoids(i, c int, avoid []int) bool {
	for _, a := range avoid {
		if p.ccR1b[a][0].Eval(i) && p.ccComboMatch[a][0][c] {
			return false
		}
	}
	return true
}

// fillLeftoversUnused is lines 14–17 of Algorithm 2 (shared by the hybrid):
// every still-unfilled tuple gets a combination irrelevant to all CCs.
// Tuples that cannot be completed (combo_unused empty) remain null — the
// invalid tuples handled by Phase II's solveInvalidTuples. Returns the
// number of tuples completed here and the number left invalid.
func (p *prob) fillLeftoversUnused() (completedViaUnused, invalid int) {
	if len(p.usedBCols) == 0 {
		return 0, 0 // nothing to fill; every tuple is trivially complete
	}
	unused := p.comboUnused()
	cursor := 0
	for i := 0; i < p.vjoin.Len(); i++ {
		if p.filled(i) {
			continue
		}
		if len(unused) == 0 {
			invalid++
			continue
		}
		p.assignCombo(i, unused[cursor%len(unused)])
		cursor++
		completedViaUnused++
	}
	return completedViaUnused, invalid
}

// splitHybrid partitions the CC set from its pairwise classification: S1
// (handled by Algorithm 2) holds the connected components — over the "not
// disjoint" relation — that contain no intersecting pair and have
// single-maximal diagrams; S2 (Algorithm 1) holds the rest.
func (p *prob) splitHybrid(rel [][]constraint.Relationship) (s1, s2 []int) {
	n := len(p.in.CCs)

	// Components over "not disjoint".
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		stack := []int{i}
		comp[i] = nc
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for u := 0; u < n; u++ {
				if comp[u] < 0 && rel[v][u] != constraint.RelDisjoint {
					comp[u] = nc
					stack = append(stack, u)
				}
			}
		}
		nc++
	}
	bad := make([]bool, nc)
	for i := 0; i < n; i++ {
		// Disjunctive CCs always take the ILP path; Algorithm 2's recursion
		// assumes conjunctive range predicates.
		if p.in.CCs[i].IsDisjunctive() {
			bad[comp[i]] = true
		}
		for j := i + 1; j < n; j++ {
			if comp[i] == comp[j] && rel[i][j] == constraint.RelIntersecting {
				bad[comp[i]] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if bad[comp[i]] {
			s2 = append(s2, i)
		} else {
			s1 = append(s1, i)
		}
	}
	return s1, s2
}

// subMatrix extracts the relationship submatrix for the given CC indices.
func subMatrix(rel [][]constraint.Relationship, idx []int) [][]constraint.Relationship {
	out := make([][]constraint.Relationship, len(idx))
	for a, i := range idx {
		out[a] = make([]constraint.Relationship, len(idx))
		for b, j := range idx {
			out[a][b] = rel[i][j]
		}
	}
	return out
}
