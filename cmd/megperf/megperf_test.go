package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"meg/internal/core"
	"meg/internal/graph"
	"meg/internal/spec"
)

// small returns w with its model shrunk so a test can run it in well
// under a second per trial.
func small(w *simWorkload) *simWorkload {
	c := *w
	c.spec.Model.N = 4096
	if c.spec.MaxRounds != 0 {
		c.spec.MaxRounds = 60
	}
	return &c
}

func TestPlanIsSeeded(t *testing.T) {
	seq := func(seed uint64) []string {
		p := newMixPlan(seed)
		var hashes []string
		for i := 0; i < 300; i++ {
			k, sp := p.next()
			if k != i {
				t.Fatalf("item %d returned index %d", i, k)
			}
			h, err := sp.Hash()
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, h)
		}
		return hashes
	}
	a, b, c := seq(5), seq(5), seq(6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different spec sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same spec sequence")
	}
	distinct := map[string]bool{}
	for _, h := range a {
		distinct[h] = true
	}
	if want := 300 * planFresh / planBlock; len(distinct) > want+1 || len(distinct) < want {
		t.Fatalf("%d distinct specs in 300 items, want about %d", len(distinct), want)
	}
}

func TestTrialChecksumsAreSeeded(t *testing.T) {
	w := small(geomFull())
	sum := func(seed uint64, i int) string {
		res, err := job(w.trialSpec(seed, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		return checksum(res)
	}
	if sum(5, 0) != sum(5, 0) {
		t.Fatal("the same seed gave different checksums")
	}
	if sum(5, 0) == sum(6, 0) || sum(5, 0) == sum(5, 1) {
		t.Fatal("different seeds or trials gave the same checksum")
	}
}

type fakeDelta struct{}

func (fakeDelta) StepDelta() graph.Delta { return graph.Delta{} }

type fakePar struct{}

func (fakePar) SetParallelism(int) {}

type fakeHint struct{}

func (fakeHint) ExpectedDegree() float64 { return 1 }

// optional lists which optional engine interfaces d implements.
func optional(d core.Dynamics) [3]bool {
	_, a := d.(core.DeltaDynamics)
	_, b := d.(core.Parallelizable)
	_, c := d.(core.DegreeHinter)
	return [3]bool{a, b, c}
}

func TestWrapperKeepsOptionalInterfaces(t *testing.T) {
	var models []core.Dynamics
	for _, name := range []string{"geometric", "torus", "edge", "waypoint", "billiard", "walkers", "iiddisk"} {
		mk, _, err := spec.Spec{Model: spec.Model{Name: name, N: 256, RFrac: 0.5}}.NewFactory()
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, mk())
	}
	st := core.NewStatic(graph.NewBuilder(4).Build())
	models = append(models, st,
		struct {
			*core.Static
			fakeDelta
		}{st, fakeDelta{}},
		struct {
			*core.Static
			fakePar
		}{st, fakePar{}},
		struct {
			*core.Static
			fakeHint
		}{st, fakeHint{}},
		struct {
			*core.Static
			fakeDelta
			fakePar
		}{st, fakeDelta{}, fakePar{}},
		struct {
			*core.Static
			fakeDelta
			fakeHint
		}{st, fakeDelta{}, fakeHint{}},
		struct {
			*core.Static
			fakePar
			fakeHint
		}{st, fakePar{}, fakeHint{}},
		struct {
			*core.Static
			fakeDelta
			fakePar
			fakeHint
		}{st, fakeDelta{}, fakePar{}, fakeHint{}})
	for _, d := range models {
		if got, want := optional(wrapModel(d, &layerCounts{})), optional(d); got != want {
			t.Errorf("%T: wrapper implements %v, model %v", d, got, want)
		}
	}
}

func TestWrapperCounts(t *testing.T) {
	tr := newTracer(512)
	tr.beginRun()
	tr.beginTrial()
	_, err := job(spec.Spec{Model: spec.Model{Name: "edge", N: 512}, Snapshot: "delta", MaxRounds: 20}, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.endTrial()
	tr.endRun()
	if c := tr.counts; c.edges == 0 || c.churn == 0 {
		t.Fatalf("delta-path counts %+v: want edges from the first snapshot and churn from the steps", c)
	}
}

func TestTracerRejectsMisnestedPhases(t *testing.T) {
	tr := newTracer(10)
	tr.beginRun()
	tr.beginTrial()
	tr.BeginPhase(core.PhaseSnapshot)
	tr.EndPhase(core.PhaseKernel)
	if err := tr.check(0, nil); err == nil {
		t.Fatal("mis-nested phase end passed the check")
	}
}

func TestTracerChecksTrialsAgainstJobTimes(t *testing.T) {
	tr := newTracer(10)
	tr.beginRun()
	tr.beginTrial()
	time.Sleep(200 * time.Millisecond)
	tr.endTrial()
	tr.endRun()
	ms := float64(tr.spans[1].end-tr.spans[1].start) / 1e6
	if err := tr.check(0, []float64{ms}); err != nil {
		t.Fatalf("matching job time: %v", err)
	}
	if err := tr.check(0, []float64{2 * ms}); err == nil {
		t.Fatal("a trial span half as long as its job passed the check")
	}
	if err := tr.check(0, []float64{ms, ms}); err == nil {
		t.Fatal("one trial span for two jobs passed the check")
	}
}

func TestSmokeRuns(t *testing.T) {
	for _, w := range []workload{small(geomFull()), small(geomStraggler()), small(edgeLowChurn()), serveMixed()} {
		t.Run(w.name(), func(t *testing.T) {
			cfg := config{seed: 3, seconds: time.Second, traceDir: t.TempDir()}
			for _, trace := range []bool{false, true} {
				res, problems, err := benchmark(w, cfg, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || len(problems) != 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d problems=%v", trace, res.Correct, res.Failed, problems)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
			}
		})
	}
}

func TestPinnedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes full-size trials")
	}
	for _, w := range workloads() {
		want := pinned[w.name()]
		if len(want) == 0 {
			t.Errorf("%s: no pinned checksums", w.name())
			continue
		}
		got, err := w.pin(1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Errorf("%s: first committed-seed checksum %s, pinned %s", w.name(), got[0], want[0])
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name())
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, runner %v", names, want)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, runner %d", len(c.listed), len(c.defs))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("BENCHMARK.json metric %s (%s), runner %s (%s)", m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestThreadCPUCountsWorkNotSleep(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	time.Sleep(100 * time.Millisecond)
	if slept := threadCPU() - c0; slept > 20*time.Millisecond {
		t.Errorf("a 100ms sleep used %v of thread CPU", slept)
	}
	c1, w0 := threadCPU(), time.Now()
	x := uint64(1)
	for time.Since(w0) < 100*time.Millisecond {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if worked := threadCPU() - c1; worked < 20*time.Millisecond || x == 0 {
		t.Errorf("100ms of busy work used only %v of thread CPU", worked)
	}
}
