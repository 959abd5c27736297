package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"meg/internal/core"
)

// spanKind is a level of the span tree: run → trial → round → phase.
type spanKind uint8

const (
	kindRun spanKind = iota
	kindTrial
	kindRound
	kindPhase
)

func (k spanKind) String() string {
	return [...]string{"run", "trial", "round", "phase"}[k]
}

// span is one timed interval. Times are nanoseconds since the tracer's
// origin; alloc and gcCPU are the process-wide heap bytes allocated and
// GC CPU seconds while the span was open, children included.
type span struct {
	parent    int32
	kind      spanKind
	phase     core.Phase
	straggler bool // rounds: began with 0 < uninformed < n/100
	start     int64
	end       int64
	alloc     uint64
	gcCPU     float64
}

// tracer records the span tree of one traced run in memory. It is the
// run's core.PhaseHook: the engine reports phase boundaries and round
// ends, the benchmark brackets the run and each trial. Trials run one
// at a time, so one tracer serves them all.
type tracer struct {
	n        int
	origin   time.Time
	spans    []span
	open     []int32 // stack of open spans
	informed int     // informed count at the start of the next round
	samples  []metrics.Sample
	counts   layerCounts // filled by the model wrapper
	err      error       // first mis-nested call
}

func newTracer(n int) *tracer {
	return &tracer{
		n:      n,
		origin: time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
		},
	}
}

// readCounters reads the allocation and GC CPU counters. Spans take it
// outside their clock readings, so its cost lands in the parent's self
// time rather than in a phase.
func (t *tracer) readCounters() (uint64, float64) {
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64(), t.samples[1].Value.Float64()
}

func (t *tracer) begin(kind spanKind, phase core.Phase, straggler bool) {
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	alloc, gc := t.readCounters()
	t.spans = append(t.spans, span{
		parent: parent, kind: kind, phase: phase, straggler: straggler,
		start: int64(time.Since(t.origin)), alloc: alloc, gcCPU: gc,
	})
	t.open = append(t.open, int32(len(t.spans)-1))
}

func (t *tracer) end(kind spanKind, phase core.Phase) {
	now := int64(time.Since(t.origin))
	alloc, gc := t.readCounters()
	if len(t.open) == 0 {
		t.fault("end of %s with no open span", kind)
		return
	}
	top := t.open[len(t.open)-1]
	s := &t.spans[top]
	if s.kind != kind || (kind == kindPhase && s.phase != phase) {
		t.fault("end of %s %s while %s %s is open", kind, phase, s.kind, s.phase)
		return
	}
	s.end, s.alloc, s.gcCPU = now, alloc-s.alloc, gc-s.gcCPU
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) fault(format string, args ...any) {
	if t.err == nil {
		t.err = fmt.Errorf(format, args...)
	}
}

func (t *tracer) topKind() spanKind {
	if len(t.open) == 0 {
		return kindRun
	}
	return t.spans[t.open[len(t.open)-1]].kind
}

func (t *tracer) beginRun() { t.begin(kindRun, 0, false) }
func (t *tracer) endRun()   { t.end(kindRun, 0) }

func (t *tracer) beginTrial() {
	t.informed = 1
	t.begin(kindTrial, 0, false)
}

func (t *tracer) endTrial() { t.end(kindTrial, 0) }

// BeginPhase implements core.PhaseHook. The first phase after a round
// ends opens the next round.
func (t *tracer) BeginPhase(p core.Phase) {
	if t.topKind() == kindTrial {
		u := t.n - t.informed
		t.begin(kindRound, 0, u > 0 && 100*u < t.n)
	}
	t.begin(kindPhase, p, false)
}

// EndPhase implements core.PhaseHook.
func (t *tracer) EndPhase(p core.Phase) { t.end(kindPhase, p) }

// RoundDone implements core.PhaseHook.
func (t *tracer) RoundDone(rs core.RoundStats) {
	t.end(kindRound, 0)
	t.informed = rs.Informed
}

// treeTotals aggregates the span tree. A span's self time is its
// duration minus its children's durations.
type treeTotals struct {
	self              [core.PhaseCount]int64
	alloc             [core.PhaseCount]int64 // self bytes
	rounds            int
	stragglerRounds   int
	stragglerKernelNS int64
}

func (t *tracer) totals() treeTotals {
	childDur := make([]int64, len(t.spans))
	childAlloc := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
			childAlloc[s.parent] += int64(s.alloc)
		}
	}
	var tot treeTotals
	for i, s := range t.spans {
		self := s.end - s.start - childDur[i]
		switch s.kind {
		case kindPhase:
			tot.self[s.phase] += self
			tot.alloc[s.phase] += int64(s.alloc) - childAlloc[i]
			if s.phase == core.PhaseKernel && t.spans[s.parent].straggler {
				tot.stragglerKernelNS += s.end - s.start
			}
		case kindRound:
			tot.rounds++
			if s.straggler {
				tot.stragglerRounds++
			}
		}
	}
	return tot
}

// check verifies the tree: no mis-nested hook calls, every span closed
// and inside its parent, siblings disjoint, one round span per
// evaluated round, and one trial span per job whose duration agrees
// with jobMS, the job times the benchmark measured with its own clock
// reads around each job, within 1% or 1ms: the absolute slack covers
// the counter reads and any preemption between the two pairs of
// readings on short jobs.
func (t *tracer) check(rounds int, jobMS []float64) error {
	if t.err != nil {
		return t.err
	}
	if len(t.open) != 0 {
		return fmt.Errorf("%d spans left open", len(t.open))
	}
	lastEnd := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d ends before it starts", i)
		}
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		if s.start < p.start || s.end > p.end || s.start < lastEnd[s.parent] {
			return fmt.Errorf("span %d (%s) is not nested in span %d (%s) or overlaps a sibling", i, s.kind, s.parent, p.kind)
		}
		lastEnd[s.parent] = s.end
	}
	tot := t.totals()
	if tot.rounds != rounds {
		return fmt.Errorf("%d round spans for %d evaluated rounds", tot.rounds, rounds)
	}
	trial := 0
	for _, s := range t.spans {
		if s.kind != kindTrial {
			continue
		}
		if trial == len(jobMS) {
			return fmt.Errorf("more trial spans than the %d jobs run", len(jobMS))
		}
		ms := float64(s.end-s.start) / 1e6
		if want := jobMS[trial]; math.Abs(ms-want) > max(0.01*want, 1) {
			return fmt.Errorf("trial span %d lasts %.3fms, its job %.3fms", trial, ms, want)
		}
		trial++
	}
	if trial != len(jobMS) {
		return fmt.Errorf("%d trial spans for %d jobs", trial, len(jobMS))
	}
	return nil
}

// layerMetrics fills the per-layer simulation metrics of a traced run.
func (t *tracer) layerMetrics(m map[string]float64, wall float64, rounds int) {
	tot := t.totals()
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	per := func(ns int64, count int64) float64 {
		if count == 0 {
			return 0
		}
		return float64(ns) / float64(count)
	}
	r := float64(max(rounds, 1))
	snap, step, apply := tot.self[core.PhaseSnapshot], tot.self[core.PhaseStep], tot.self[core.PhaseDeltaApply]
	kernel, merge := tot.self[core.PhaseKernel], tot.self[core.PhaseMerge]
	m["snapshot.self_s"] = sec(snap)
	m["snapshot.share"] = sec(snap) / wall
	m["snapshot.alloc_mb"] = mb(tot.alloc[core.PhaseSnapshot])
	m["snapshot.edges_per_round"] = float64(t.counts.edges) / r
	m["snapshot.ns_per_edge"] = per(snap, t.counts.edges)
	m["step.self_s"] = sec(step)
	m["step.share"] = sec(step) / wall
	m["step.alloc_mb"] = mb(tot.alloc[core.PhaseStep])
	m["step.churn_per_round"] = float64(t.counts.churn) / r
	m["step.ns_per_churn"] = per(step, t.counts.churn)
	m["delta_apply.self_s"] = sec(apply)
	m["delta_apply.share"] = sec(apply) / wall
	m["delta_apply.alloc_mb"] = mb(tot.alloc[core.PhaseDeltaApply])
	m["delta_apply.ns_per_churn"] = per(apply, t.counts.churn)
	m["core.kernel_self_s"] = sec(kernel)
	m["core.kernel_share"] = sec(kernel) / wall
	m["core.merge_s"] = sec(merge)
	m["core.rounds"] = float64(tot.rounds)
	m["core.straggler_rounds"] = float64(tot.stragglerRounds)
	m["core.straggler_kernel_ms"] = float64(tot.stragglerKernelNS) / 1e6
	m["flood.unattributed_s"] = wall - sec(snap+step+apply+kernel+merge)
}

// spanJSON is one span of the written trace file.
type spanJSON struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"`
	Name      string  `json:"name"`
	StartNS   int64   `json:"startNS"`
	EndNS     int64   `json:"endNS"`
	AllocB    uint64  `json:"allocBytes"`
	GCCPU     float64 `json:"gcCPUSeconds"`
	Straggler bool    `json:"straggler,omitempty"`
}

// write stores the span tree as <dir>/<workload>-seed<seed>.json.
func (t *tracer) write(dir, workload string, seed uint64) error {
	spans := make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		name := s.kind.String()
		if s.kind == kindPhase {
			name = s.phase.String()
		}
		spans[i] = spanJSON{ID: i, Parent: int(s.parent), Name: name, StartNS: s.start, EndNS: s.end,
			AllocB: s.alloc, GCCPU: s.gcCPU, Straggler: s.straggler}
	}
	return writeSpans(dir, workload, seed, spans)
}

// writeSpans writes one span per line to <dir>/<workload>-seed<seed>.json;
// an empty dir writes nothing.
func writeSpans(dir, workload string, seed uint64, spans []spanJSON) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// runtimeStats are process-wide runtime counters.
type runtimeStats struct {
	allocBytes uint64
	gcCPU      float64
	gcCycles   uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeStats{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64()}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{allocBytes: a.allocBytes - b.allocBytes, gcCPU: a.gcCPU - b.gcCPU, gcCycles: a.gcCycles - b.gcCycles}
}

func (a runtimeStats) into(m map[string]float64) {
	m["runtime.alloc_mb"] = float64(a.allocBytes) / (1 << 20)
	m["runtime.gc_cpu_s"] = a.gcCPU
	m["runtime.gc_cycles"] = float64(a.gcCycles)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// percentile is the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is the midpoint median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
