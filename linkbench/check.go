package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/table"
)

// checkOutput verifies one synthesized output against the C-Extension
// contract: every R̂1 foreign key is filled and references an R̂2 key, and
// no denial constraint is violated.
func checkOutput(r1hat, r2hat *table.Relation, fk, k2 string, dcs []constraint.DC) error {
	keys := make(map[table.Value]bool, r2hat.Len())
	for i := 0; i < r2hat.Len(); i++ {
		keys[r2hat.Value(i, k2)] = true
	}
	for i := 0; i < r1hat.Len(); i++ {
		v := r1hat.Value(i, fk)
		if v.IsNull() {
			return fmt.Errorf("R1 row %d: foreign key not filled", i)
		}
		if !keys[v] {
			return fmt.Errorf("R1 row %d: foreign key %v references no R2 key", i, v)
		}
	}
	if viol := metrics.DCViolations(r1hat, fk, dcs); len(viol) > 0 {
		return fmt.Errorf("%d R1 rows violate a denial constraint", len(viol))
	}
	return nil
}

// ccAccuracy is one minus the mean relative CC error over the join view
// (the paper's quality measure), each error capped at 1: 1 when every CC
// holds exactly.
func ccAccuracy(vjoin *table.Relation, ccs []constraint.CC) float64 {
	errs := metrics.CCErrors(vjoin, ccs)
	for i, e := range errs {
		errs[i] = math.Min(e, 1)
	}
	return 1 - mean(errs)
}

// relationDigest hashes the relations' CSV renderings: two outputs share
// a digest only when their schemas and cells agree.
func relationDigest(rels ...*table.Relation) ([32]byte, error) {
	h := sha256.New()
	for _, r := range rels {
		if err := table.WriteCSV(h, r); err != nil {
			return [32]byte{}, err
		}
	}
	var d [32]byte
	h.Sum(d[:0])
	return d, nil
}

// servedResult is the part of a solve response body the checks read.
type servedResult struct {
	Key    string `json:"key"`
	Result struct {
		R1Hat service.RelationJSON `json:"r1_hat"`
		R2Hat service.RelationJSON `json:"r2_hat"`
		Stats core.Stats           `json:"stats"`
	} `json:"result"`
}

// toRelation converts a wire relation into a table relation.
func toRelation(rj *service.RelationJSON) (*table.Relation, error) {
	cols := make([]table.Column, len(rj.Columns))
	for j, c := range rj.Columns {
		switch c.Type {
		case "int":
			cols[j] = table.IntCol(c.Name)
		case "string":
			cols[j] = table.StrCol(c.Name)
		default:
			return nil, fmt.Errorf("relation %s: column %q has type %q", rj.Name, c.Name, c.Type)
		}
	}
	rel := table.NewRelation(rj.Name, table.NewSchema(cols...))
	for i, row := range rj.Rows {
		vals := make([]table.Value, len(row))
		for j, cell := range row {
			switch c := cell.(type) {
			case nil:
				vals[j] = table.Null()
			case json.Number:
				n, err := c.Int64()
				if err != nil {
					return nil, fmt.Errorf("relation %s: row %d: %v", rj.Name, i, err)
				}
				vals[j] = table.Int(n)
			case string:
				vals[j] = table.String(c)
			default:
				return nil, fmt.Errorf("relation %s: row %d: cell of type %T", rj.Name, i, cell)
			}
		}
		if err := rel.Append(vals...); err != nil {
			return nil, fmt.Errorf("relation %s: row %d: %v", rj.Name, i, err)
		}
	}
	return rel, nil
}
