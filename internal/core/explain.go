package core

import (
	"repro/internal/obsv"
)

// buildExplain measures the solve's cost report: per-CC/DC cardinalities
// and selectivities counted off the columnar posting lists, the phase
// durations already captured in Stats, partition sizes, and the ILP and
// reuse counters. It runs only when the request asked for it
// (Trace.ExplainRequested), after both phases completed, and is strictly
// read-only diagnostics: it consults the same compiled state the solve
// used (colView, ccComboMatch, dcCand, comboOf) and never touches solver
// output, Stats the solve already wrote, or anything fingerprinted. The
// durations come from Stats — measured through the audited now()/since()
// helpers — so this file reads no clock.
func (p *prob) buildExplain() *obsv.ExplainReport {
	stat := p.stat
	viewRows := p.vjoin.Len()
	rep := &obsv.ExplainReport{
		Mode:       p.opt.Mode.String(),
		ViewRows:   viewRows,
		R2Rows:     p.in.R2.Len(),
		Combos:     len(p.combos),
		UsedBCols:  len(p.usedBCols),
		CCsToHasse: stat.CCsToHasse,
		CCsToILP:   stat.CCsToILP,
	}

	// Route per CC: the hybrid's S1/S2 split when it ran, the mode's
	// single route otherwise.
	route := make([]string, len(p.in.CCs))
	switch {
	case p.opt.Mode == ModeILPOnly:
		for i := range route {
			route[i] = "ilp"
		}
	case p.opt.Mode == ModeHasseOnly:
		for i := range route {
			route[i] = "hasse"
		}
	case p.split != nil:
		for _, i := range p.split.s1 {
			route[i] = "hasse"
		}
		for _, i := range p.split.s2 {
			route[i] = "ilp"
		}
	}

	for i, cc := range p.in.CCs {
		ec := obsv.ExplainCC{Index: i, Name: cc.Name, Target: cc.Target, Route: route[i]}
		for d := range p.ccR1b[i] {
			rows := p.colView.Count(p.ccR1b[i][d])
			matched := 0
			for _, ok := range p.ccComboMatch[i][d] {
				if ok {
					matched++
				}
			}
			ec.Disjuncts = append(ec.Disjuncts, obsv.ExplainDisjunct{
				R1Rows:        rows,
				R1Selectivity: ratio(rows, viewRows),
				Combos:        matched,
				ComboFraction: ratio(matched, len(p.combos)),
			})
		}
		rep.CCs = append(rep.CCs, ec)
	}

	// DC candidate sets. ensureDCCand is idempotent: on any solve with DCs
	// phase II already built these, so this is a slice read, not a rescan.
	p.ensureDCCand()
	for di, dc := range p.in.DCs {
		ed := obsv.ExplainDC{Index: di, Name: dc.Name}
		for v := 0; v < dc.K; v++ {
			rows := 0
			for _, ok := range p.dcCand[di][v] {
				if ok {
					rows++
				}
			}
			ed.Vars = append(ed.Vars, obsv.ExplainVar{Rows: rows, Selectivity: ratio(rows, viewRows)})
		}
		rep.DCs = append(rep.DCs, ed)
	}

	rep.Phases = []obsv.ExplainPhase{
		{Name: "classify", DurNS: stat.Pairwise.Nanoseconds()},
		{Name: "hasse", DurNS: stat.Recursion.Nanoseconds()},
		{Name: "ilp", DurNS: stat.ILPTime.Nanoseconds()},
		{Name: "phase1", DurNS: stat.Phase1.Nanoseconds()},
		{Name: "coloring", DurNS: stat.Coloring.Nanoseconds()},
		{Name: "phase2", DurNS: stat.Phase2.Nanoseconds()},
		{Name: "total", DurNS: stat.Total.Nanoseconds()},
	}

	parts, invalid := p.partitions()
	ep := obsv.ExplainPartitions{Count: len(parts), InvalidRows: len(invalid), MatrixBytes: p.matrixBytes}
	total := 0
	for i, pt := range parts {
		n := len(pt.rows)
		total += n
		if i == 0 || n < ep.MinRows {
			ep.MinRows = n
		}
		if n > ep.MaxRows {
			ep.MaxRows = n
		}
	}
	if len(parts) > 0 {
		ep.MeanRows = float64(total) / float64(len(parts))
	}
	rep.Partitions = ep

	rep.ILP = obsv.ExplainILP{
		Vars:   stat.ILPVars,
		Rows:   stat.ILPRows,
		Nodes:  stat.ILPNodes,
		Iters:  stat.ILPIters,
		Status: stat.ILPStatus,
	}
	rep.Reuse = obsv.ExplainReuse{
		ProbReused:        stat.ProbReused,
		SplicedPartitions: stat.SplicedPartitions,
		ConflictEdges:     stat.ConflictEdges,
		SkippedVertices:   stat.SkippedVertices,
		AddedR2Tuples:     stat.AddedR2Tuples,
	}
	return rep
}

// ratio is n/d guarding the empty-denominator case.
func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
