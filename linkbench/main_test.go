package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyConfig shrinks every workload to a few hundred milliseconds.
func tinyConfig(workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 0.3, trace: trace, setups: 2,
		dense: solveShape{households: 60, areas: 3, ccs: 10, instances: 2, calWorkers: 2},
		wide:  solveShape{households: 60, areas: 10, extraCols: 8, ccs: 40, badCCs: true, instances: 2, calWorkers: 1},
		serve: serveShape{instances: 4, households: []int{30, 60}, areas: 3, ccMin: 5, ccMax: 10, rate: 40},
	}
}

func TestMetricSpecsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var want []metricSpec
	for _, m := range bf.EndToEnd {
		want = append(want, metricSpec{m.Name, m.Unit, true})
	}
	for _, m := range bf.PerLayer {
		want = append(want, metricSpec{m.Name, m.Unit, false})
	}
	if len(want) != len(metricSpecs) {
		t.Fatalf("BENCHMARK.json names %d metrics, the benchmark reports %d", len(want), len(metricSpecs))
	}
	for i := range want {
		if want[i] != metricSpecs[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, want[i], metricSpecs[i])
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s of BENCHMARK.json is not implemented", w.Name)
		}
	}
}

// TestTinyWorkloadsPrintEveryMetric runs a tiny configuration of every
// workload, untraced and traced, and checks that the last line carries
// exactly the metrics BENCHMARK.json names, with their units.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			var out, log bytes.Buffer
			if err := run(tinyConfig(w.Name, trace), &out, &log); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, log.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, r.Correct, r.Attempted, r.Failed, log.String())
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// plantOwnerClash moves one householder into another householder's
// household, which violates the one-owner-per-house denial constraint.
func plantOwnerClash(r1hat *table.Relation) bool {
	first := -1
	for i := 0; i < r1hat.Len(); i++ {
		if r1hat.Value(i, "Rel").Str() != "Owner" {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		r1hat.Set(first, "hid", r1hat.Value(i, "hid"))
		return true
	}
	return false
}

func TestDCViolationCountsAsFailure(t *testing.T) {
	cfg := tinyConfig("solve-dense", false)
	planted := 0
	cfg.afterSolve = func(res *core.Result) {
		if planted == 0 && plantOwnerClash(res.R1Hat) {
			planted++
		}
	}
	o, err := runSolve(cfg, cfg.dense, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if planted != 1 {
		t.Fatalf("planted %d clashes, want 1", planted)
	}
	if o.failed != 1 || o.badOutput != 1 {
		t.Errorf("failed=%d badOutput=%d after one planted DC violation, want 1 and 1", o.failed, o.badOutput)
	}
	r, err := render(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != 1 {
		t.Errorf("report correct=%v failed=%d, want false and 1", r.Correct, r.Failed)
	}
}
