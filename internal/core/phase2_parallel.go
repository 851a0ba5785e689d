package core

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/sched"
	"repro/internal/table"
)

// coloredPart is the order-independent output of one partition's heavy
// work: the conflict hypergraph, the base palette, and the first
// list-coloring pass over it — or, on the session path, a pointer to the
// prior solve's memo entry when the partition can be replayed instead of
// recomputed (spliced non-nil; the other fields are then unset).
type coloredPart struct {
	graph    *hypergraph.Graph
	palette  []table.Value
	coloring hypergraph.Coloring
	skipped  []int
	spliced  *memoPart
}

// colorPartitions runs Algorithm 4 over the partitions, streamed through
// the shared worker pool (the Appendix A.3 optimization, without the
// barrier the seed had between partition discovery and coloring): each
// partition's conflict hypergraph is built and base-colored as a pure
// function on a worker, while the serial tail — minting fresh keys for
// skipped vertices, appending tuples to R̂2, recording FKs, all of which
// touch shared ordered state — consumes results in canonical partition
// order as they arrive. Later partitions color while earlier ones merge,
// and the output is byte-identical to the sequential path (a nil pool runs
// exactly that sequential loop).
func (ph *phase2) colorPartitions(parts []partition) error {
	p := ph.p
	p.stat.Partitions = len(parts)
	var memo *solveMemo
	if p.capture {
		memo = newSolveMemo()
	}
	var firstErr error
	sched.Ordered(p.pool, len(parts), func(i int) coloredPart {
		// Splice check on the worker: it reads only immutable inputs (the
		// retained memos, the new partition, the DC-referenced columns of
		// V_Join). The fresh-key condition is checked in the serial tail.
		if mp := p.spliceable(parts[i]); mp != nil {
			return coloredPart{spliced: mp}
		}
		return ph.colorPart(parts[i])
	}, func(i int, r coloredPart) {
		if firstErr != nil {
			return
		}
		if r.spliced != nil {
			ok, err := ph.spliceFinish(parts[i], r.spliced, memo)
			if err != nil {
				firstErr = err
				return
			}
			if ok {
				return
			}
			// Fresh-key state diverged from the memo's entry point: this
			// partition mints, so it must be recomputed (serially — rare).
			r = ph.colorPart(parts[i])
		}
		if err := ph.finishPart(parts[i], r, memo); err != nil {
			firstErr = err
		}
	})
	p.captured = memo
	return firstErr
}

// colorPart builds the conflict hypergraph for one partition and colors it
// from the partition's base palette (Algorithm 3 over Def. 5.1 conflicts).
// It reads only immutable solver state and may run on any worker.
func (ph *phase2) colorPart(pt partition) coloredPart {
	p := ph.p
	g := hypergraph.New(len(pt.rows))
	ph.buildConflicts(g, pt.rows)
	palette := ph.partitionKeys(pt.combo)
	baseIdx := make([]int, len(palette))
	for i := range baseIdx {
		baseIdx[i] = i
	}
	allowed := func(int) []int { return baseIdx }
	coloring, skipped := p.colorGraph(g, hypergraph.NewColoring(len(pt.rows)), allowed)
	return coloredPart{graph: g, palette: palette, coloring: coloring, skipped: skipped}
}

// finishPart is the serial tail of one partition: repair skipped vertices
// with fresh colors, materialize the corresponding new R̂2 tuples
// (Algorithm 4, lines 11–14), and record the FK assignment. With memo
// non-nil (the session path) the partition's outcome — row set, FK
// assignment, fresh-key trace — is recorded for splicing by the next solve.
func (ph *phase2) finishPart(pt partition, r coloredPart, memo *solveMemo) error {
	p := ph.p
	p.stat.ConflictEdges += r.graph.NumEdges()
	p.stat.SkippedVertices += len(r.skipped)
	enterNext := ph.fresh.next
	var minted []mintRec
	palette := r.palette
	coloring := r.coloring
	if len(r.skipped) > 0 {
		freshIdx := make([]int, len(r.skipped))
		for i := range r.skipped {
			palette = append(palette, ph.fresh.mint())
			freshIdx[i] = len(palette) - 1
		}
		allowedFresh := func(int) []int { return freshIdx }
		if _, left := p.colorGraph(r.graph, coloring, allowedFresh); len(left) > 0 {
			return fmt.Errorf("core: phase 2: %d vertices uncolorable with %d fresh colors", len(left), len(r.skipped))
		}
		usedFresh := make(map[int]bool)
		for _, c := range coloring {
			if c >= len(palette)-len(r.skipped) {
				usedFresh[c] = true
			}
		}
		if memo != nil {
			minted = make([]mintRec, len(freshIdx))
		}
		for i, fi := range freshIdx {
			if memo != nil {
				minted[i] = mintRec{key: palette[fi], appended: usedFresh[fi]}
			}
			if usedFresh[fi] {
				ph.appendR2Tuple(palette[fi], pt.combo)
			}
		}
	}
	var fkOut []table.Value
	if memo != nil {
		fkOut = make([]table.Value, len(pt.rows))
	}
	for li, ri := range pt.rows {
		key := palette[coloring[li]]
		ph.fk[ri] = key
		ph.keyRows[key] = append(ph.keyRows[key], ri)
		if memo != nil {
			fkOut[li] = key
		}
	}
	if memo != nil {
		memo.parts[pt.combo] = &memoPart{n: len(pt.rows), vals: p.dcVals(pt.rows), fk: fkOut,
			minted: minted, enterNext: enterNext, edges: r.graph.NumEdges(), skipped: len(r.skipped)}
	}
	return nil
}
