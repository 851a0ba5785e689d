// Package linksynth synthesizes the links between database relations under
// cardinality and integrity constraints. It is a Go implementation of
// "Synthesizing Linked Data Under Cardinality and Integrity Constraints"
// (Gilad, Patwa, Machanavajjhala; SIGMOD 2021).
//
// Given a relation R1 whose foreign-key column is entirely missing, the
// referenced relation R2, a set of linear cardinality constraints (CCs)
// over the join view R1 ⋈ R2, and a set of foreign-key denial constraints
// (DCs) over R1, Solve imputes every FK value such that all DCs hold
// exactly and the CC counts are met as closely as possible (the decision
// problem is NP-hard; the solver is the paper's two-phase heuristic, which
// guarantees DC satisfaction).
//
// Quick start:
//
//	in := linksynth.Input{R1: persons, R2: housing, K1: "pid", K2: "hid", FK: "hid",
//		CCs: ccs, DCs: dcs}
//	res, err := linksynth.Solve(in, linksynth.Options{})
//	// res.R1Hat has the FK column filled; res.R2Hat may contain a few
//	// artificial tuples added to satisfy the DCs; res.VJoin is the join.
//
// Constraints can be built programmatically (see the constraint aliases) or
// parsed from the text DSL:
//
//	cc owners: count(Rel = 'Owner', Area = 'Chicago') = 4
//	dc one_owner: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'
package linksynth

import (
	"context"
	"io"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/table"
)

// Relational substrate types (see internal/table for full method docs).
type (
	// Relation is an in-memory row-major relation instance.
	Relation = table.Relation
	// Schema is an ordered, name-indexed column list.
	Schema = table.Schema
	// Column is a named, typed schema column.
	Column = table.Column
	// Value is a dynamically typed cell (int, string, or null).
	Value = table.Value
	// Predicate is a conjunctive selection predicate.
	Predicate = table.Predicate
	// Atom is one comparison of a Predicate.
	Atom = table.Atom
)

// Constraint types.
type (
	// CC is a linear cardinality constraint |σ_φ(R1 ⋈ R2)| = k.
	CC = constraint.CC
	// DC is a foreign-key denial constraint over R1.
	DC = constraint.DC
)

// Solver types.
type (
	// Input is a C-Extension instance.
	Input = core.Input
	// Options configure the solver; the zero value is the paper's hybrid.
	Options = core.Options
	// Result carries R̂1, R̂2, the join view and runtime statistics.
	Result = core.Result
	// Stats is the per-stage runtime/diagnostic breakdown.
	Stats = core.Stats
)

// Solver modes (phase-I strategy).
const (
	ModeHybrid    = core.ModeHybrid
	ModeILPOnly   = core.ModeILPOnly
	ModeHasseOnly = core.ModeHasseOnly
)

// Value constructors.
var (
	Int    = table.Int
	String = table.String
	Null   = table.Null
)

// Schema constructors.
var (
	NewSchema   = table.NewSchema
	NewRelation = table.NewRelation
	IntCol      = table.IntCol
	StrCol      = table.StrCol
)

// Solve runs the two-phase C-Extension solver (the paper's hybrid under
// the zero Options). Options.Workers > 1 (or negative, for GOMAXPROCS)
// parallelizes both phases on a bounded worker pool with output
// byte-identical to the sequential path.
func Solve(in Input, opt Options) (*Result, error) { return core.Solve(in, opt) }

// SolveBatch solves many instances over one shared worker pool sized by
// opt.Workers. Results align positionally with inputs; a failing instance
// yields a nil Result and an error annotated with its index in the joined
// error return, without disturbing the other instances. Each instance's
// output is byte-identical to a standalone Solve with the same Options.
func SolveBatch(inputs []Input, opt Options) ([]*Result, error) {
	return core.SolveBatch(context.Background(), inputs, opt)
}

// SolveBatchContext is SolveBatch under a context: cancellation is honored
// at instance boundaries — instances not yet started when ctx is done fail
// with ctx.Err() in the joined error.
func SolveBatchContext(ctx context.Context, inputs []Input, opt Options) ([]*Result, error) {
	return core.SolveBatch(ctx, inputs, opt)
}

// Fingerprint returns the SHA-256 content address of an instance: two
// (Input, Options) pairs share a key iff the solver is guaranteed to
// produce the byte-identical Result for both (Options.Workers and
// constraint names are excluded — neither changes the output). It is the
// cache key of the linksynthd serving layer.
func Fingerprint(in Input, opt Options) ([32]byte, error) { return core.Fingerprint(in, opt) }

// Incremental solve types (see internal/incr for the engine).
type (
	// Session is a warm solver session over one base instance: Solve once,
	// then Resolve small deltas — each re-solve splices unchanged work from
	// the previous one while staying byte-identical to a cold solve of the
	// patched instance.
	Session = incr.Session
	// Delta is a change set relative to a session's base instance.
	Delta = incr.Delta
	// CellEdit rewrites one R1 cell in a Delta.
	CellEdit = incr.CellEdit
)

// Open starts an incremental solve session for the instance: the returned
// Session solves the base once, then re-solves deltas (CC bound nudges, R1
// cell edits, appended rows) incrementally — reusing the compiled problem
// and splicing untouched phase-2 partitions — with results byte-identical
// to cold solves of the equivalent patched inputs. A Session is not safe
// for concurrent use.
func Open(in Input, opt Options) (*Session, error) {
	return incr.Open(in, opt, nil)
}

// BaselineOptions configures the plain Arasu-style baseline of §6.1 (ILP
// without marginal augmentation, random FK assignment, DCs ignored).
func BaselineOptions(seed int64) Options { return core.BaselineOptions(seed) }

// BaselineMarginalsOptions configures the "baseline with marginals"
// comparison algorithm of §6.1.
func BaselineMarginalsOptions(seed int64) Options { return core.BaselineMarginalsOptions(seed) }

// ParseConstraints reads CCs and DCs from the text DSL, one per line.
func ParseConstraints(r io.Reader) ([]CC, []DC, error) { return constraint.ParseConstraints(r) }

// ParseCC parses a single cardinality constraint line.
func ParseCC(src string) (CC, error) { return constraint.ParseCC(src) }

// ParseDC parses a single denial constraint line.
func ParseDC(src string) (DC, error) { return constraint.ParseDC(src) }

// CCErrors returns the relative error of each CC measured on a join view
// (|ĉ−c| / max(10,c), the paper's §6.1 measure).
func CCErrors(vjoin *Relation, ccs []CC) []float64 { return metrics.CCErrors(vjoin, ccs) }

// DCErrorFraction returns the fraction of R̂1 tuples involved in at least
// one DC violation (0 for every solver output; nonzero for baselines).
func DCErrorFraction(r1hat *Relation, fkCol string, dcs []DC) float64 {
	return metrics.DCErrorFraction(r1hat, fkCol, dcs)
}

// ReadCSVFile loads a relation from a CSV file with a header row matching
// the schema.
func ReadCSVFile(path, name string, schema *Schema) (*Relation, error) {
	return table.ReadCSVFile(path, name, schema)
}

// WriteCSVFile stores a relation as CSV.
func WriteCSVFile(path string, r *Relation) error { return table.WriteCSVFile(path, r) }
