package core

import (
	"testing"

	"repro/internal/obsv"
)

// TestExplainMatrixBytes pins the conflict-matrix size the explain report
// derives from partition sizes: Σ n·⌈n/64⌉·8 over the colored graphs.
func TestExplainMatrixBytes(t *testing.T) {
	cases := []struct {
		name string
		in   func() Input
		opt  Options
		want int64
	}{
		// Partitions of 2 and 7 rows, one word per row: (2+7)·8.
		{"paper/hybrid", func() Input { return paperInput(t) }, Options{}, 72},
		// 18 partitions of 279–359 rows, five or six words per row.
		{"census-large/hybrid", func() Input { return censusInput(t, 2000, 60, true, false) }, Options{}, 289520},
		// One graph over 1833 rows: 1833·29·8.
		{"census-600/no-partition", func() Input { return censusInput(t, 600, 60, true, false) }, Options{NoPartition: true}, 425256},
		// The random-FK baseline builds no conflict graph.
		{"census-600/baseline", func() Input { return censusInput(t, 600, 60, true, false) }, BaselineOptions(0), 0},
	}
	for _, c := range cases {
		tr := obsv.NewTrace(obsv.NewID(), "explain", "test")
		tr.RequestExplain()
		if _, err := SolveOnContext(obsv.WithTrace(nil, tr), c.in(), c.opt, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := tr.Explain().Partitions.MatrixBytes; got != c.want {
			t.Errorf("%s: matrix_bytes = %d, want %d", c.name, got, c.want)
		}
	}
}
