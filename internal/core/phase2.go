package core

import (
	"fmt"
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/table"
)

// phase2 completes R1.FK from the filled V_Join (Algorithm 4). It returns
// the per-row FK assignment (aligned with V_Join/R1 rows) and the augmented
// copy of R2.
type phase2 struct {
	p       *prob
	r2hat   *table.Relation
	fk      []table.Value
	keyRows map[table.Value][]int // FK value -> V_Join rows assigned so far
	fresh   *freshKeys

	// Scratch buffers for the invalid-tuple path (conflictsWithGroup runs
	// once per (tuple, key, DC) probe; rebuilding these per call dominated
	// its allocation profile). Only the serial tail uses them.
	poolBuf   []int
	assignBuf []int
	tuplesBuf [][]table.Value
}

// freshKeys mints primary-key values that do not collide with R2's keys.
type freshKeys struct {
	kind table.Type
	next int64
	used map[table.Value]bool
}

func newFreshKeys(r2 *table.Relation, k2 string) *freshKeys {
	f := &freshKeys{kind: r2.Schema().Col(r2.Schema().MustIndex(k2)).Type, used: make(map[table.Value]bool)}
	for i := 0; i < r2.Len(); i++ {
		v := r2.Value(i, k2)
		f.used[v] = true
		if v.Kind() == table.KindInt && v.Int() >= f.next {
			f.next = v.Int() + 1
		}
	}
	return f
}

func (f *freshKeys) mint() table.Value {
	for {
		var v table.Value
		if f.kind == table.TypeInt {
			v = table.Int(f.next)
		} else {
			v = table.String(fmt.Sprintf("synthetic_%d", f.next))
		}
		f.next++
		if !f.used[v] {
			f.used[v] = true
			return v
		}
	}
}

// partition is one phase-II unit of work: the V_Join rows that phase I
// assigned the same B-value combination, identified by the combo id
// (-1 for the trivial partition when R2 has no active combos).
type partition struct {
	combo int
	rows  []int
}

// partitions groups the filled V_Join rows by their assigned combo and
// returns the groups in canonical (sorted-key) order plus the unfilled
// (invalid) rows. Rows carry their combo index from phase I, so discovery
// is a single O(n) scan with no value re-encoding, and — combo order being
// key-sorted already — no sort either.
func (p *prob) partitions() (parts []partition, invalid []int) {
	if len(p.usedBCols) == 0 {
		// Every row is trivially complete; one partition under the empty
		// combo (whose backing R2 rows are all of R2).
		if p.vjoin.Len() == 0 {
			return nil, nil
		}
		rows := make([]int, p.vjoin.Len())
		for i := range rows {
			rows[i] = i
		}
		c0 := -1
		if c, ok := p.comboByKey[table.EncodeKey()]; ok {
			c0 = c
		}
		return []partition{{combo: c0, rows: rows}}, nil
	}
	rowsBy := make([][]int, len(p.combos))
	for i := 0; i < p.vjoin.Len(); i++ {
		c := p.comboOf[i]
		if c < 0 {
			invalid = append(invalid, i)
			continue
		}
		rowsBy[c] = append(rowsBy[c], i)
	}
	for c, rows := range rowsBy {
		if len(rows) > 0 {
			parts = append(parts, partition{combo: c, rows: rows})
		}
	}
	return parts, invalid
}

func (p *prob) runPhase2() (*phase2, error) {
	ph := &phase2{
		p:       p,
		r2hat:   p.in.R2.Clone(),
		fk:      make([]table.Value, p.vjoin.Len()),
		keyRows: make(map[table.Value][]int),
		fresh:   newFreshKeys(p.in.R2, p.in.K2),
	}
	ph.r2hat.Name = p.in.R2.Name

	parts, invalid := p.partitions()
	p.stat.InvalidTuples = len(invalid)

	p.matrixBytes = p.conflictMatrixBytes(parts)
	if p.opt.RandomFK {
		ph.assignRandom(parts, invalid)
		return ph, nil
	}
	p.ensureDCCand()

	tColor := now()
	var err error
	if p.opt.NoPartition {
		err = ph.colorGlobal(parts)
	} else {
		err = ph.colorPartitions(parts)
	}
	p.stat.Coloring = since(tColor)
	p.trace.Span("coloring", tColor, p.stat.Coloring)
	if err != nil {
		return nil, err
	}
	if len(invalid) > 0 {
		ph.solveInvalidTuples(invalid)
	}
	return ph, nil
}

// conflictMatrixBytes is the adjacency-matrix memory of the conflict graphs
// phase II builds over parts — one per partition, one over every row under
// NoPartition, none for RandomFK — known before any graph is allocated.
func (p *prob) conflictMatrixBytes(parts []partition) int64 {
	if p.opt.RandomFK {
		return 0
	}
	var total int64
	rows := 0
	for _, pt := range parts {
		total += hypergraph.MatrixBytes(len(pt.rows))
		rows += len(pt.rows)
	}
	if p.opt.NoPartition {
		return hypergraph.MatrixBytes(rows)
	}
	return total
}

// partitionKeys returns the candidate FK values for a partition: the keys
// of R̂2 rows whose usedBCols match the partition combo (L in Algorithm 4).
// The list was computed and sorted once during problem setup; callers must
// not mutate it in place.
func (ph *phase2) partitionKeys(combo int) []table.Value {
	if combo < 0 {
		return nil
	}
	return ph.p.keysByCombo[combo]
}

// buildConflicts adds, for every DC, an edge per tuple set of the partition
// that satisfies the DC's explicit predicate (Def. 5.1). rows holds V_Join
// row indices; edges use local indices into rows. Candidate lists come from
// the precomputed per-(DC, variable) unary-filter bitsets, and the pair
// loops evaluate only the bound binary atoms (the unary part is already
// guaranteed by candidate membership).
func (ph *phase2) buildConflicts(g *hypergraph.Graph, rows []int) {
	p := ph.p
	for di := range p.boundDCs {
		dc := &p.boundDCs[di]
		// Per-variable candidate lists via the unary filters, exact-sized
		// from a counting pass over the bitsets.
		cands := make([][]int, dc.K)
		for v := 0; v < dc.K; v++ {
			bits := p.dcCand[di][v]
			cnt := 0
			for _, ri := range rows {
				if bits[ri] {
					cnt++
				}
			}
			list := make([]int, 0, cnt)
			for li, ri := range rows {
				if bits[ri] {
					list = append(list, li)
				}
			}
			cands[v] = list
		}
		switch dc.K {
		case 2:
			spec := p.in.DCs[di]
			switch {
			case len(spec.Binary) == 0:
				// Pure-unary pair DC (e.g. "no two owners share a home"):
				// the unary filters already decide everything, so the edge
				// set is the complete bipartite graph over the candidate
				// lists (a clique when symmetric). No per-pair evaluation.
				if dc.Symmetric01 {
					for ai, a := range cands[0] {
						for _, b := range cands[0][ai+1:] {
							g.AddPair(a, b)
						}
					}
				} else {
					for _, a := range cands[0] {
						for _, b := range cands[1] {
							if a != b {
								g.AddPair(a, b)
							}
						}
					}
				}
			case len(spec.Binary) == 1 && sweepable(spec.Binary[0], p.vjoin.Schema()):
				ph.sweepEdges(g, spec.Binary[0], cands, rows)
			default:
				if dc.Symmetric01 {
					for ai, a := range cands[0] {
						for _, b := range cands[0][ai+1:] {
							if dc.HoldsBinary(p.vjoin.Row(rows[a]), p.vjoin.Row(rows[b])) {
								g.AddPair(a, b)
							}
						}
					}
				} else {
					for _, a := range cands[0] {
						for _, b := range cands[1] {
							if a == b {
								continue
							}
							if dc.HoldsBinary(p.vjoin.Row(rows[a]), p.vjoin.Row(rows[b])) {
								g.AddPair(a, b)
							}
						}
					}
				}
			}
		default:
			tuples := make([][]table.Value, dc.K)
			ph.enumEdges(g, dc.K, cands, func(assign []int) bool {
				for v, li := range assign {
					tuples[v] = p.vjoin.Row(rows[li])
				}
				return dc.HoldsBinary(tuples...)
			})
		}
	}
}

// enumEdges enumerates ordered assignments of distinct partition tuples to
// the K variables of a DC, adding an edge for each satisfying set.
func (ph *phase2) enumEdges(g *hypergraph.Graph, k int, cands [][]int, holds func([]int) bool) {
	assign := make([]int, k)
	var rec func(v int)
	rec = func(v int) {
		if v == k {
			if holds(assign) {
				g.AddEdge(assign...)
			}
			return
		}
		for _, li := range cands[v] {
			dup := false
			for _, prev := range assign[:v] {
				if prev == li {
					dup = true
					break
				}
			}
			if !dup {
				assign[v] = li
				rec(v + 1)
			}
		}
	}
	rec(0)
}

// colorGlobal is the NoPartition ablation: one conflict hypergraph over all
// filled tuples with per-vertex candidate lists.
func (ph *phase2) colorGlobal(parts []partition) error {
	p := ph.p
	var rows []int
	var rowCombo []int // combo id per local vertex, aligned with rows
	for _, pt := range parts {
		for _, r := range pt.rows {
			rows = append(rows, r)
			rowCombo = append(rowCombo, pt.combo)
		}
	}
	p.stat.Partitions = 1
	g := hypergraph.New(len(rows))
	ph.buildConflicts(g, rows)
	p.stat.ConflictEdges += g.NumEdges()

	// Global palette: all keys, indexed; per-vertex allowed lists pick the
	// keys matching the vertex's combo.
	var palette []table.Value
	idxByCombo := make(map[int][]int)
	for _, pt := range parts {
		for _, kv := range ph.partitionKeys(pt.combo) {
			idxByCombo[pt.combo] = append(idxByCombo[pt.combo], len(palette))
			palette = append(palette, kv)
		}
	}
	allowed := func(v int) []int { return idxByCombo[rowCombo[v]] }
	coloring, skipped := p.colorGraph(g, hypergraph.NewColoring(len(rows)), allowed)
	p.stat.SkippedVertices += len(skipped)
	if len(skipped) > 0 {
		freshByCombo := make(map[int][]int)
		for _, v := range skipped {
			ck := rowCombo[v]
			palette = append(palette, ph.fresh.mint())
			freshByCombo[ck] = append(freshByCombo[ck], len(palette)-1)
		}
		allowedFresh := func(v int) []int { return freshByCombo[rowCombo[v]] }
		if _, left := p.colorGraph(g, coloring, allowedFresh); len(left) > 0 {
			return fmt.Errorf("core: phase 2 (global): %d vertices uncolorable", len(left))
		}
		used := make(map[int]bool)
		for _, c := range coloring {
			used[c] = true
		}
		// Canonical combo order, not map order: R̂2 row order must be
		// deterministic for the same seed.
		for _, pt := range parts {
			for _, fi := range freshByCombo[pt.combo] {
				if used[fi] {
					ph.appendR2Tuple(palette[fi], pt.combo)
				}
			}
		}
	}
	for li, ri := range rows {
		key := palette[coloring[li]]
		ph.fk[ri] = key
		ph.keyRows[key] = append(ph.keyRows[key], ri)
	}
	return nil
}

// colorGraph runs Algorithm 3 over g in the configured visit order:
// largest-first, or index order for the OrderInput ablation.
func (p *prob) colorGraph(g *hypergraph.Graph, c hypergraph.Coloring, allowed func(int) []int) (hypergraph.Coloring, []int) {
	if p.opt.Order == OrderInput {
		return g.ColoringInputOrder(c, allowed)
	}
	return g.ColoringLF(c, allowed)
}

// appendR2Tuple adds a fresh household to R̂2: the minted key, the
// partition's usedBCols values, and the remaining B columns copied from an
// existing row of the same combo (or null when the combo has no backing
// row, which cannot happen for active combos). combo is -1 when there is no
// active combo to copy from.
func (ph *phase2) appendR2Tuple(key table.Value, combo int) {
	p := ph.p
	row := make([]table.Value, ph.r2hat.Schema().Len())
	for i := range row {
		row[i] = table.Null()
	}
	row[ph.r2hat.Schema().MustIndex(p.in.K2)] = key
	if combo >= 0 {
		if backing := p.r2RowsBy[combo]; len(backing) > 0 {
			src := p.in.R2.Row(backing[0])
			for _, c := range p.bCols {
				j := ph.r2hat.Schema().MustIndex(c)
				row[j] = src[p.in.R2.Schema().MustIndex(c)]
			}
		}
		for j, c := range p.usedBCols {
			row[ph.r2hat.Schema().MustIndex(c)] = p.combos[combo][j]
		}
	}
	ph.r2hat.MustAppend(row...)
	p.stat.AddedR2Tuples++
}

// conflictsWithGroup reports whether adding V_Join row t to the set of rows
// already holding one FK value would violate any DC. The candidate pool and
// assignment run out of phase2-owned scratch buffers; unary filtering is a
// bitset lookup and the leaf check evaluates only the bound binary atoms.
func (ph *phase2) conflictsWithGroup(t int, group []int) bool {
	p := ph.p
	ph.poolBuf = append(append(ph.poolBuf[:0], group...), t)
	pool := ph.poolBuf
	for di := range p.boundDCs {
		dc := &p.boundDCs[di]
		if len(pool) < dc.K {
			continue
		}
		if cap(ph.assignBuf) < dc.K {
			ph.assignBuf = make([]int, dc.K)
			ph.tuplesBuf = make([][]table.Value, dc.K)
		}
		assign := ph.assignBuf[:dc.K]
		tuples := ph.tuplesBuf[:dc.K]
		cand := p.dcCand[di]
		var rec func(v int, usedT bool) bool
		rec = func(v int, usedT bool) bool {
			if v == dc.K {
				if !usedT {
					return false // only new violations involving t matter
				}
				for i, r := range assign {
					tuples[i] = p.vjoin.Row(r)
				}
				return dc.HoldsBinary(tuples...)
			}
			for _, r := range pool {
				dup := false
				for _, prev := range assign[:v] {
					if prev == r {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				if !cand[v][r] {
					continue
				}
				assign[v] = r
				if rec(v+1, usedT || r == t) {
					return true
				}
			}
			return false
		}
		if rec(0, false) {
			return true
		}
	}
	return false
}

// solveInvalidTuples (Algorithm 4, line 16): each invalid tuple gets the
// combo minimizing the marginal CC error; existing keys of that combo are
// tried in order under DC checks, and a fresh key is minted otherwise.
func (ph *phase2) solveInvalidTuples(invalid []int) {
	p := ph.p
	counter := newCCCounter(p)
	const maxKeysTried = 256
	for _, t := range invalid {
		// Rank combos by CC-error delta; unused combos have delta 0. The
		// counter caches t's per-disjunct R1 matches once, so each combo's
		// delta is table lookups.
		counter.prepare(t)
		type cand struct {
			combo int
			delta float64
		}
		cands := make([]cand, 0, len(p.combos))
		for c := range p.combos {
			cands = append(cands, cand{combo: c, delta: counter.delta(c)})
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].delta < cands[b].delta })

		assignedKey := table.Null()
		chosenCombo := -1
		for _, cd := range cands {
			if cd.delta > cands[0].delta {
				break // only consider minimum-error combos for existing keys
			}
			tried := 0
			for _, r2row := range p.r2RowsBy[cd.combo] {
				if tried >= maxKeysTried {
					break
				}
				tried++
				key := p.in.R2.Value(r2row, p.in.K2)
				if ph.conflictsWithGroup(t, ph.keyRows[key]) {
					continue
				}
				assignedKey = key
				chosenCombo = cd.combo
				break
			}
			if !assignedKey.IsNull() {
				break
			}
		}
		if assignedKey.IsNull() {
			// Fresh household with the minimum-error combo.
			chosenCombo = -1
			if len(cands) > 0 {
				chosenCombo = cands[0].combo
			}
			assignedKey = ph.fresh.mint()
			ph.appendR2Tuple(assignedKey, chosenCombo)
		}
		if chosenCombo >= 0 && len(p.usedBCols) > 0 {
			p.assignCombo(t, chosenCombo)
			counter.commit(chosenCombo)
		}
		ph.fk[t] = assignedKey
		ph.keyRows[assignedKey] = append(ph.keyRows[assignedKey], t)
	}
}

// assignRandom is the baselines' phase II: each tuple takes a uniformly
// random candidate FK; DCs are ignored entirely.
func (ph *phase2) assignRandom(parts []partition, invalid []int) {
	p := ph.p
	p.stat.Partitions = len(parts)
	for _, pt := range parts {
		cand := ph.partitionKeys(pt.combo)
		for _, ri := range pt.rows {
			var key table.Value
			if len(cand) > 0 {
				key = cand[p.rng.Intn(len(cand))]
			} else {
				key = ph.fresh.mint()
				ph.appendR2Tuple(key, pt.combo)
			}
			ph.fk[ri] = key
			ph.keyRows[key] = append(ph.keyRows[key], ri)
		}
	}
	// Invalid tuples: random combo, then random key within it.
	for _, t := range invalid {
		if len(p.combos) == 0 {
			key := ph.fresh.mint()
			ph.appendR2Tuple(key, -1)
			ph.fk[t] = key
			continue
		}
		c := p.rng.Intn(len(p.combos))
		if len(p.usedBCols) > 0 {
			p.assignCombo(t, c)
		}
		rows := p.r2RowsBy[c]
		key := p.in.R2.Value(rows[p.rng.Intn(len(rows))], p.in.K2)
		ph.fk[t] = key
		ph.keyRows[key] = append(ph.keyRows[key], t)
	}
}
