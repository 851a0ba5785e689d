package obsv

// This file defines the solve EXPLAIN report: a structured per-solve cost
// breakdown the solver fills at the end of a run when (and only when) the
// request asked for it. The report is diagnostics in the same sense as
// spans — it never feeds core.Fingerprint, never enters a cached response
// body, and requesting it never changes solver output bytes (the golden
// tests pin this). It lives here rather than in core because everything
// above core (service, benchtab, the flight recorder) reads it, and obsv
// is the one package they all already share.
//
// All measured quantities are deterministic for a given instance: posting
// list cardinalities, combo match counts, DC candidate counts, and
// partition sizes depend only on input data and constraints. The phase
// durations are the solver's own audited span measurements and naturally
// vary run to run — which is exactly why explain data is spliced into a
// response after the cached body, never stored in it.

// ExplainReport is one solve's cost report.
type ExplainReport struct {
	// Instance shape.
	Mode      string `json:"mode"`      // phase-I strategy (hybrid, ilp-only, hasse-only)
	ViewRows  int    `json:"view_rows"` // |V_Join| = |R1|
	R2Rows    int    `json:"r2_rows"`
	Combos    int    `json:"combos"`     // active B-combos over the CC-used columns
	UsedBCols int    `json:"used_bcols"` // B columns any CC references

	// Routing: how the hybrid split the CC set (§4.3).
	CCsToHasse int `json:"ccs_to_hasse"`
	CCsToILP   int `json:"ccs_to_ilp"`

	// Per-constraint measured cardinalities and selectivities.
	CCs []ExplainCC `json:"ccs,omitempty"`
	DCs []ExplainDC `json:"dcs,omitempty"`

	// Per-phase durations (the same measurements the trace spans carry).
	Phases []ExplainPhase `json:"phases,omitempty"`

	Partitions ExplainPartitions `json:"partitions"`
	ILP        ExplainILP        `json:"ilp"`
	Reuse      ExplainReuse      `json:"reuse"`
}

// ExplainCC is one cardinality constraint's measured stats.
type ExplainCC struct {
	Index     int               `json:"index"`
	Name      string            `json:"name,omitempty"`
	Target    int64             `json:"target"`
	Route     string            `json:"route"` // "hasse" | "ilp"
	Disjuncts []ExplainDisjunct `json:"disjuncts"`
}

// ExplainDisjunct measures one disjunct of a CC: how many V_Join rows its
// R1 part selects (counted off the columnar posting lists) and how many
// active combos its R2 part admits.
type ExplainDisjunct struct {
	R1Rows        int     `json:"r1_rows"`
	R1Selectivity float64 `json:"r1_selectivity"` // r1_rows / view_rows
	Combos        int     `json:"combos"`
	ComboFraction float64 `json:"combo_fraction"` // combos / total combos
}

// ExplainDC is one denial constraint's candidate-set stats: per tuple
// variable, the V_Join rows passing that variable's unary filters.
type ExplainDC struct {
	Index int          `json:"index"`
	Name  string       `json:"name,omitempty"`
	Vars  []ExplainVar `json:"vars"`
}

// ExplainVar is one DC tuple variable's measured candidate set.
type ExplainVar struct {
	Rows        int     `json:"rows"`
	Selectivity float64 `json:"selectivity"`
}

// ExplainPhase is one solver phase's measured duration.
type ExplainPhase struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// ExplainPartitions summarizes the §5.2 partitioning phase II colored.
type ExplainPartitions struct {
	Count       int     `json:"count"`
	MinRows     int     `json:"min_rows"`
	MaxRows     int     `json:"max_rows"`
	MeanRows    float64 `json:"mean_rows"`
	InvalidRows int     `json:"invalid_rows"` // rows no unused combo could complete
	// MatrixBytes is the conflict-graph adjacency memory phase II sizes
	// from the partitions: Σ n·⌈n/64⌉·8 over the colored graphs (one graph
	// over every row under no-partition, none for the random-FK baselines).
	MatrixBytes int64 `json:"matrix_bytes"`
}

// ExplainILP carries Algorithm 1's effort counters.
type ExplainILP struct {
	Vars   int    `json:"vars"`
	Rows   int    `json:"rows"`
	Nodes  int    `json:"nodes"`
	Iters  int    `json:"iters"`
	Status string `json:"status,omitempty"`
}

// ExplainReuse reports how much warm state the solve reused (the session /
// delta path; all zero for a cold solve).
type ExplainReuse struct {
	ProbReused        bool `json:"prob_reused"`
	SplicedPartitions int  `json:"spliced_partitions"`
	ConflictEdges     int  `json:"conflict_edges"`
	SkippedVertices   int  `json:"skipped_vertices"`
	AddedR2Tuples     int  `json:"added_r2_tuples"`
}
