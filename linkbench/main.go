// Command linkbench is the linksynth benchmark. It drives the public entry
// points of the synthesizer — core.SolveOnContext on a benchmark-owned
// worker pool, and the linksynthd HTTP handler on a loopback listener — on
// one of three workloads, checks every output, and prints one JSON line:
//
//	go run . --workload solve-dense --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, whose times are
// calibrated against the machine's speed (calib.go); with --trace 1 a
// separately run, traced pass yields the per-layer metrics. NOTES.md
// records why each workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
)

// metricSpec names one reported metric. e2e marks the end-to-end set
// printed by untraced runs; the rest are the per-layer set of traced runs.
type metricSpec struct {
	name string
	unit string
	e2e  bool
}

// metricSpecs is every metric the benchmark reports, in print order.
var metricSpecs = []metricSpec{
	{"setup_s", "s", true},
	{"peak_rss_mb", "MB", true},
	{"full_p50_ms", "ms", true},
	{"cc_accuracy", "ratio", true},

	{"census.generate_s", "s", false},
	{"core.compile_ms", "ms", false},
	{"core.writeback_ms", "ms", false},
	{"core.phase2_other_ms", "ms", false},
	{"core.fingerprint_ms", "ms", false},
	{"core.unspanned_frac", "ratio", false},
	{"constraint.classify_ms", "ms", false},
	{"hasse.recursion_ms", "ms", false},
	{"ilp.solve_ms", "ms", false},
	{"ilp.vars", "count", false},
	{"ilp.rows", "count", false},
	{"ilp.nodes", "count", false},
	{"ilp.iters", "count", false},
	{"hypergraph.color_ms", "ms", false},
	{"hypergraph.edges", "count", false},
	{"hypergraph.partitions", "count", false},
	{"hypergraph.max_partition_rows", "count", false},
	{"hypergraph.skipped", "count", false},
	{"hypergraph.added_r2", "count", false},
	{"sched.inline_frac", "ratio", false},
	{"runtime.alloc_mb_per_op", "MB", false},
	{"runtime.gc_cycles_per_op", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"service.hit_p50_ms", "ms", false},
	{"service.cold_p50_ms", "ms", false},
	{"service.delta_p50_ms", "ms", false},
	{"service.request_decode_ms", "ms", false},
	{"service.body_kb", "KB", false},
	{"service.rejected", "count", false},
	{"service.coalesced", "count", false},
	{"cache.hit_ratio", "ratio", false},
	{"cache.lookups", "count", false},
	{"cache.evictions", "count", false},
	{"incr.cold", "count", false},
	{"incr.warm", "count", false},
	{"incr.partial", "count", false},
	{"incr.session_misses", "count", false},
	{"incr.plan_hit_ratio", "ratio", false},
	{"obsv.trace_overhead_frac", "ratio", false},
	{"bench.full_n", "count", false},
	{"bench.full_p95_ms", "ms", false},
	{"bench.delta_n", "count", false},
	{"bench.delta_p50_ms", "ms", false},
	{"bench.delta_p85_ms", "ms", false},
	{"bench.slo_miss_frac", "ratio", false},
	{"bench.max_ok_rps", "1/s", false},
	{"bench.send_late_ms", "ms", false},
	{"bench.calibration_ms", "ms", false},
}

// outcome is what one workload run measured: operation counts and the
// metric values by name. A per-layer metric a workload does not exercise
// is absent and prints as 0 (the layer did no work); an end-to-end metric
// must always be present.
type outcome struct {
	attempted int
	failed    int
	badOutput int // operations whose output failed a check (subset of failed)
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail records a failed operation; bad marks a failed output check, which
// also makes the run incorrect.
func (o *outcome) fail(bad bool) {
	o.failed++
	if bad {
		o.badOutput++
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render selects the end-to-end (trace false) or per-layer (trace true)
// metrics of an outcome.
func render(o *outcome, trace bool) (*report, error) {
	r := &report{
		Correct:   o.badOutput == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, m := range metricSpecs {
		if m.e2e == trace {
			continue
		}
		v, ok := o.values[m.name]
		if !ok && m.e2e {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return r, nil
}

// config is one run's parameters. Tests shrink the workload shapes.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int // set-ups per run; setup_s is their median
	dense    solveShape
	wide     solveShape
	serve    serveShape
	// afterSolve, when set, edits each solve workload result before it is
	// checked; tests use it to plant a wrong output.
	afterSolve func(*core.Result)
}

func defaultConfig() config {
	return config{setups: 3, dense: denseShape, wide: wideShape, serve: serveMixShape}
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(cfg config, log io.Writer) (*outcome, error){
	"solve-dense": func(cfg config, log io.Writer) (*outcome, error) { return runSolve(cfg, cfg.dense, log) },
	"solve-wide":  func(cfg config, log io.Writer) (*outcome, error) { return runSolve(cfg, cfg.wide, log) },
	"serve-mix":   runServe,
}

func run(cfg config, out, log io.Writer) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	o, err := runner(cfg, log)
	if err != nil {
		return err
	}
	r, err := render(o, cfg.trace)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload: solve-dense, solve-wide or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs and the request schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "linkbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	start := time.Now()
	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "linkbench: %s seed %d done in %.1fs\n", cfg.workload, cfg.seed, time.Since(start).Seconds())
}
