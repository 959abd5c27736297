// Command megperf is the repository's benchmark of record. It drives the
// simulator from outside — spec, flood, core, the models, graph and
// serve — on four fixed workloads and prints every metric by name and
// unit, ending with one JSON line:
//
//	megperf --workload geom-full --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the workload runs untraced and then once more traced
// (phase spans from a core.PhaseHook recorder, model-boundary counts
// from a forwarding wrapper), and the per-layer split is reported.
// Every run checks its outputs; a failed check makes the run exit 1.
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"meg/internal/core"
)

// committedSeed is the seed whose per-item checksums are pinned in
// pinned.go. Runs at any other seed check outputs by cross-path runs.
const committedSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator or of megserve sees,
// reported by untraced runs. Failures are reported through the result
// line's attempted/failed counts rather than as a metric, because a
// healthy run has none.
var endToEnd = []metricDef{
	{"rounds_per_s", "rounds/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_ms_p50", "ms"},
	{"job_ms_p99", "ms"},
	{"jobs_per_s", "jobs/s"},
}

// perLayer are the single-layer metrics of a traced run.
var perLayer = []metricDef{
	{"snapshot.self_s", "s"},
	{"snapshot.share", "ratio"},
	{"snapshot.alloc_mb", "MB"},
	{"snapshot.edges_per_round", "edges/round"},
	{"snapshot.ns_per_edge", "ns/edge"},
	{"step.self_s", "s"},
	{"step.share", "ratio"},
	{"step.alloc_mb", "MB"},
	{"step.churn_per_round", "edges/round"},
	{"step.ns_per_churn", "ns/edge"},
	{"delta_apply.self_s", "s"},
	{"delta_apply.share", "ratio"},
	{"delta_apply.alloc_mb", "MB"},
	{"delta_apply.ns_per_churn", "ns/edge"},
	{"core.kernel_self_s", "s"},
	{"core.kernel_share", "ratio"},
	{"core.merge_s", "s"},
	{"core.rounds", "count"},
	{"core.straggler_rounds", "count"},
	{"core.straggler_kernel_ms", "ms"},
	{"setup.factory_s", "s"},
	{"setup.reset_s", "s"},
	{"flood.unattributed_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.executor_runs", "count"},
	{"serve.result_kb", "KB"},
	{"trace.overhead", "ratio"},
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	// traceDir receives the traced run's span tree; "" writes nothing.
	traceDir string
}

// workload is one benchmark workload: run measures it for
// cfg.seconds (traced or not) and verify adds the untimed output checks
// that need extra runs.
type workload interface {
	name() string
	run(cfg config, traced bool) (*outcome, error)
	verify(cfg config, o *outcome) error
	// pin computes the first count item checksums at the committed seed.
	pin(count int) ([]string, error)
}

// workloads is the fixed list, in BENCHMARK.json order.
func workloads() []workload {
	return []workload{geomFull(), geomStraggler(), edgeLowChurn(), serveMixed()}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name() == name {
			return w, true
		}
	}
	return nil, false
}

// outcome is what one run of a workload produced.
type outcome struct {
	// sums holds one checksum per item (trial or planned job), in item
	// order; bad marks the items whose output check failed.
	sums []string
	bad  []bool
	// problems describes every failed check, for standard error.
	problems []string
	// roundsPerS is the run's rounds_per_s, also kept for traced runs,
	// whose metrics map holds the per-layer split instead.
	roundsPerS float64
	metrics    map[string]float64
	// first is the first trial's result on the simulation workloads,
	// kept for the cross-path check.
	first core.FloodResult
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// add records one item's checksum and whether its output check passed.
func (o *outcome) add(sum string, err error) {
	o.sums = append(o.sums, sum)
	o.bad = append(o.bad, err != nil)
	if err != nil {
		o.problems = append(o.problems, fmt.Sprintf("item %d: %v", len(o.sums)-1, err))
	}
}

// fail marks item i failed.
func (o *outcome) fail(i int, format string, args ...any) {
	if i >= 0 && i < len(o.bad) {
		o.bad[i] = true
	}
	o.problems = append(o.problems, fmt.Sprintf("item %d: ", i)+fmt.Sprintf(format, args...))
}

func (o *outcome) failed() int {
	n := 0
	for _, b := range o.bad {
		if b {
			n++
		}
	}
	return n
}

// checkPinned compares the first items of a committed-seed run with the
// checksums recorded in pinned.go.
func checkPinned(name string, o *outcome) {
	want := pinned[name]
	for i := 0; i < len(want) && i < len(o.sums); i++ {
		if o.sums[i] != want[i] {
			o.fail(i, "checksum %s, pinned %s", o.sums[i], want[i])
		}
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchmark runs a workload untraced (and, with trace, once more
// traced) and assembles the result line.
func benchmark(w workload, cfg config, trace bool) (result, []string, error) {
	o, err := w.run(cfg, false)
	if err != nil {
		return result{}, nil, err
	}
	if err := w.verify(cfg, o); err != nil {
		return result{}, nil, err
	}
	defs, values := endToEnd, o.metrics
	attempted, failed, problems := len(o.sums), o.failed(), o.problems
	if trace {
		t, err := w.run(cfg, true)
		if err != nil {
			return result{}, nil, err
		}
		// Tracing observes only: the traced items must reproduce the
		// untraced ones exactly.
		for i := 0; i < len(t.sums) && i < len(o.sums); i++ {
			if t.sums[i] != o.sums[i] {
				t.fail(i, "traced checksum %s differs from untraced %s", t.sums[i], o.sums[i])
			}
		}
		// A workload that installs no tracer reports its own
		// trace.overhead: its two runs differ only by noise.
		if _, ok := t.metrics["trace.overhead"]; !ok {
			t.metrics["trace.overhead"] = 1 - t.roundsPerS/o.roundsPerS
		}
		defs, values = perLayer, t.metrics
		attempted += len(t.sums)
		failed += t.failed()
		problems = append(problems, t.problems...)
	}
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, nil, fmt.Errorf("workload %s reported no finite %s", w.name(), d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = failed == 0 && len(problems) == 0 && attempted > 0
	return res, problems, nil
}

func main() {
	name := flag.String("workload", "", "workload name (geom-full|geom-straggler-delta|edge-lowchurn-delta|serve-mixed)")
	seed := flag.Uint64("seed", committedSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced run")
	pin := flag.Int("pin", 0, "print the first N committed-seed checksums of the workload as Go source and exit")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "megperf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *pin > 0 {
		sums, err := w.pin(*pin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "megperf: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\t%q: {\n", w.name())
		for _, s := range sums {
			fmt.Printf("\t\t%q,\n", s)
		}
		fmt.Printf("\t},\n")
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "megperf: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traceDir: ".bench_build/traces"}
	res, problems, err := benchmark(w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "megperf: %s: %v\n", w.name(), err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "megperf: %s: check failed: %s\n", w.name(), p)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %16.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("%s seed=%d attempted=%d failed=%d correct=%v\n", w.name(), *seed, res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "megperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
