package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/rng"
	"meg/internal/spec"
)

// crossPath names the untimed second execution path a simulation
// workload's first trial is re-run on at non-committed seeds.
type crossPath int

const (
	// crossParallelism re-runs the trial on the sharded engine with
	// nproc workers (at least 2).
	crossParallelism crossPath = iota
	// crossSnapshot re-runs the trial on the full snapshot path.
	crossSnapshot
)

// simWorkload floods one spec per job, one trial per job, at
// Parallelism 1 with one trial worker — the engine configuration of a
// default megsim or megserve job — for as long as the run lasts.
type simWorkload struct {
	label string
	spec  spec.Spec // Trials 1; the seed is replaced per trial
	cross crossPath
	// crossRounds caps the cross-path run (0: the whole trial); it must
	// then agree with the measured trial over those rounds. It keeps
	// the full-rebuild re-run of the straggler trial to a few seconds.
	crossRounds  int
	mustComplete bool
}

// geomFull is the paper's geometric MEG flooded to completion on the
// full snapshot path, where snapshot construction dominates.
func geomFull() *simWorkload {
	return &simWorkload{
		label: "geom-full",
		spec: spec.Spec{
			Model:       spec.Model{Name: "geometric", N: 8192, Mult: 2, RFrac: 0.5, Jump: 1},
			Trials:      1,
			Workers:     1,
			Parallelism: 1,
		},
		cross:        crossParallelism,
		mustComplete: true,
	}
}

// geomStraggler is the sub-threshold lazy geometric MEG on the delta
// path over a fixed horizon: step and delta_apply dominate, and the
// flooding kernel carries its only visible share.
func geomStraggler() *simWorkload {
	return &simWorkload{
		label: "geom-straggler-delta",
		spec: spec.Spec{
			Model:       spec.Model{Name: "geometric", N: 65536, Mult: 0.5, RFrac: 0.8, Jump: 0.005},
			Trials:      1,
			MaxRounds:   400,
			Workers:     1,
			Parallelism: 1,
			Snapshot:    "delta",
		},
		cross:       crossSnapshot,
		crossRounds: 100,
	}
}

// edgeLowChurn is the low-churn edge-MEG on the delta path over a fixed
// horizon: no cell grid or geometric code runs at all.
func edgeLowChurn() *simWorkload {
	return &simWorkload{
		label: "edge-lowchurn-delta",
		spec: spec.Spec{
			Model:       spec.Model{Name: "edge", N: 65536, PhatMult: 0.5, Q: 0.002},
			Trials:      1,
			MaxRounds:   400,
			Workers:     1,
			Parallelism: 1,
			Snapshot:    "delta",
		},
		cross: crossSnapshot,
	}
}

func (w *simWorkload) name() string { return w.label }

// trialSpec is the spec of trial i of a run at seed.
func (w *simWorkload) trialSpec(seed uint64, i int) spec.Spec {
	s := w.spec
	s.Seed = rng.SeedFor(seed, i)
	return s
}

// job runs one spec as megsim would, returning its only trial. With a
// tracer the model is wrapped for counts and the tracer observes the
// engine phases.
func job(sp spec.Spec, tr *tracer) (core.FloodResult, error) {
	mk, _, err := sp.NewFactory()
	if err != nil {
		return core.FloodResult{}, err
	}
	opt, err := flood.OptionsFromSpec(sp)
	if err != nil {
		return core.FloodResult{}, err
	}
	factory := flood.Factory(mk)
	if tr != nil {
		factory = func() core.Dynamics { return wrapModel(mk(), &tr.counts) }
		opt.Hook = func(int) core.PhaseHook { return tr }
	}
	camp := flood.Run(factory, opt)
	if len(camp.Trials) != 1 {
		return core.FloodResult{}, fmt.Errorf("campaign returned %d trials, want 1", len(camp.Trials))
	}
	return camp.Trials[0].Result, nil
}

// Set-up is repeated at least setupMinReps times and until setupBudget
// has passed (at most setupMaxReps times); set-up metrics are medians.
const (
	setupMinReps = 9
	setupMaxReps = 500
	setupBudget  = 500 * time.Millisecond
)

// setupDone reports whether a set-up loop that started at start has
// made enough repetitions.
func setupDone(reps int, start time.Time) bool {
	return reps >= setupMaxReps || (reps >= setupMinReps && time.Since(start) >= setupBudget)
}

// setupTimes are the medians of the set-up phases, in seconds.
type setupTimes struct {
	total, factory, reset float64
}

// measureSetup times spec → ready model by direct calls: Canonical,
// NewFactory plus the constructor, and Reset to the stationary G₀, each
// on the thread's CPU clock. A collection first leaves every run's
// set-ups the same heap to start from, whatever the trials left behind.
func measureSetup(sp spec.Spec, seed uint64) (setupTimes, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	var total, factory, reset []float64
	for start, i := time.Now(), 0; !setupDone(i, start); i++ {
		t0 := threadCPU()
		c, err := sp.Canonical()
		if err != nil {
			return setupTimes{}, err
		}
		t1 := threadCPU()
		mk, _, err := c.NewFactory()
		if err != nil {
			return setupTimes{}, err
		}
		d := mk()
		t2 := threadCPU()
		d.Reset(rng.New(rng.SeedFor(seed, -1-i)))
		t3 := threadCPU()
		total = append(total, (t3 - t0).Seconds())
		factory = append(factory, (t2 - t1).Seconds())
		reset = append(reset, (t3 - t2).Seconds())
	}
	return setupTimes{total: median(total), factory: median(factory), reset: median(reset)}, nil
}

// threadCPU is the CPU time the calling OS thread has used, from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), which reads the scheduler's
// nanosecond runtime of the thread (getrusage(RUSAGE_THREAD) advances
// only at scheduler ticks and read 0 for set-ups shorter than a tick).
// The run locks its goroutine to its thread, and at Parallelism 1 with
// one trial worker a job runs entirely on that goroutine, so the
// difference of two readings is the time the job was on a CPU: its wall
// time less the time the hypervisor gave the virtual CPU to other
// tenants (steal) and less waits for a CPU. On a shared VM steal varied
// wall times by up to half between runs minutes apart; this clock is
// what an unshared CPU shows. Concurrent GC work on other threads is
// not counted, GC assists are.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// run floods trial after trial for about cfg.seconds of wall time. Job
// times, throughput and set-up are on the thread's CPU clock (see
// threadCPU); the traced run's spans are on the wall clock.
func (w *simWorkload) run(cfg config, traced bool) (*outcome, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	n := w.spec.Model.N
	c, err := w.spec.Canonical()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(n)
	}
	before := readRuntime()
	o := newOutcome()
	var jobMS, jobWallMS []float64
	rounds := 0
	start, cpuStart := time.Now(), threadCPU()
	if tr != nil {
		tr.beginRun()
	}
	for i := 0; ; i++ {
		// A trial starts while it is expected to end no more than half a
		// trial past the deadline, so a run lasts about cfg.seconds
		// however long its trials are.
		if elapsed := time.Since(start); i > 0 && elapsed+elapsed/time.Duration(2*i) > cfg.seconds {
			break
		}
		sp := w.trialSpec(cfg.seed, i)
		t0, c0 := time.Now(), threadCPU()
		if tr != nil {
			tr.beginTrial()
		}
		res, err := job(sp, tr)
		if tr != nil {
			tr.endTrial()
		}
		jobMS = append(jobMS, float64(threadCPU()-c0)/1e6)
		jobWallMS = append(jobWallMS, float64(time.Since(t0))/1e6)
		if err != nil {
			return nil, err
		}
		rounds += len(res.Trajectory) - 1
		if i == 0 {
			o.first = res
		}
		o.add(checksum(res), checkResult(res, n, c.MaxRounds, w.mustComplete))
	}
	if tr != nil {
		tr.endRun()
	}
	wall, cpu := time.Since(start).Seconds(), (threadCPU() - cpuStart).Seconds()
	after := readRuntime()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Set-up is timed after the peak RSS is read, so its repeated model
	// constructions stay out of the peak of the trials.
	st, err := measureSetup(w.spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("wall clock %.3fs, job thread on a CPU %.3fs (%.1f%%)\n", wall, cpu, 100*cpu/wall)
	o.roundsPerS = float64(rounds) / cpu
	if !traced {
		o.metrics["rounds_per_s"] = o.roundsPerS
		o.metrics["setup_s"] = st.total
		o.metrics["peak_rss_mb"] = rss
		o.metrics["job_ms_p50"] = median(jobMS)
		o.metrics["job_ms_p99"] = percentile(jobMS, 0.99)
		o.metrics["jobs_per_s"] = float64(len(jobMS)) / cpu
		return o, nil
	}
	if err := tr.check(rounds, jobWallMS); err != nil {
		o.problems = append(o.problems, "trace: "+err.Error())
	}
	if err := tr.write(cfg.traceDir, w.label, cfg.seed); err != nil {
		return nil, err
	}
	tr.layerMetrics(o.metrics, wall, rounds)
	o.metrics["setup.factory_s"] = st.factory
	o.metrics["setup.reset_s"] = st.reset
	after.sub(before).into(o.metrics)
	for _, name := range []string{"serve.submit_ms_p50", "serve.queue_wait_ms_p50", "serve.run_ms_p50",
		"serve.cache_hit_ratio", "serve.coalesced_ratio", "serve.executor_runs", "serve.result_kb"} {
		o.metrics[name] = 0
	}
	return o, nil
}

// verify checks the run's outputs beyond the per-trial checks: against
// the pinned checksums at the committed seed, otherwise by re-running
// the first trial on the workload's cross path.
func (w *simWorkload) verify(cfg config, o *outcome) error {
	if cfg.seed == committedSeed {
		checkPinned(w.label, o)
		return nil
	}
	sp := w.trialSpec(cfg.seed, 0)
	what := ""
	switch w.cross {
	case crossParallelism:
		sp.Parallelism = max(2, runtime.NumCPU())
		what = fmt.Sprintf("parallelism %d", sp.Parallelism)
	case crossSnapshot:
		sp.Snapshot = "full"
		what = "full snapshot path"
	}
	want := o.first
	if k := w.crossRounds; k > 0 && len(want.Trajectory)-1 > k {
		sp.MaxRounds = k
		want = capped(want, k)
		what += fmt.Sprintf(" over %d rounds", k)
	}
	res, err := job(sp, nil)
	if err != nil {
		return err
	}
	if sum, measured := checksum(res), checksum(want); sum != measured {
		o.fail(0, "checksum %s on the %s, %s on the measured path", sum, what, measured)
	}
	return nil
}

// capped is the result r would have had under a cap of k rounds, for a
// run of r that went past round k.
func capped(r core.FloodResult, k int) core.FloodResult {
	c := r
	c.Rounds, c.Completed = k, false
	c.Trajectory = r.Trajectory[:k+1]
	c.Arrival = make([]int32, len(r.Arrival))
	for v, a := range r.Arrival {
		if int(a) > k {
			a = -1
		}
		c.Arrival[v] = a
	}
	return c
}

// pin computes the first count committed-seed checksums.
func (w *simWorkload) pin(count int) ([]string, error) {
	var sums []string
	for i := 0; i < count; i++ {
		res, err := job(w.trialSpec(committedSeed, i), nil)
		if err != nil {
			return nil, err
		}
		sums = append(sums, checksum(res))
	}
	return sums, nil
}

// checksum fingerprints a FloodResult: source, rounds, completion,
// trajectory and every node's arrival round.
func checksum(r core.FloodResult) string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	w(uint64(r.Source))
	w(uint64(r.Rounds))
	if r.Completed {
		w(1)
	} else {
		w(0)
	}
	for _, m := range r.Trajectory {
		w(uint64(m))
	}
	for _, a := range r.Arrival {
		w(uint64(uint32(a)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkResult checks a trial's internal consistency: a monotone
// trajectory from the single source, completion exactly when every node
// is informed, and arrival rounds that reproduce the trajectory.
func checkResult(r core.FloodResult, n, maxRounds int, mustComplete bool) error {
	traj := r.Trajectory
	if len(traj) < 2 || traj[0] != 1 {
		return fmt.Errorf("trajectory %v does not start from one informed node", traj[:min(len(traj), 4)])
	}
	if len(r.Arrival) != n || r.Source < 0 || r.Source >= n || r.Arrival[r.Source] != 0 {
		return fmt.Errorf("arrival array of %d entries does not hold source %d at round 0", len(r.Arrival), r.Source)
	}
	last := traj[len(traj)-1]
	switch {
	case r.Completed && (last != n || r.Rounds != len(traj)-1):
		return fmt.Errorf("completed after %d rounds with %d/%d informed", r.Rounds, last, n)
	case !r.Completed && (last >= n || r.Rounds != maxRounds || len(traj)-1 != maxRounds):
		return fmt.Errorf("incomplete run stopped at round %d (cap %d) with %d/%d informed", len(traj)-1, maxRounds, last, n)
	case mustComplete && !r.Completed:
		return fmt.Errorf("flooding did not complete within %d rounds", r.Rounds)
	}
	perRound := make([]int, len(traj))
	for v, a := range r.Arrival {
		if a < 0 {
			continue
		}
		if int(a) >= len(traj) {
			return fmt.Errorf("node %d arrives in round %d after the last round %d", v, a, len(traj)-1)
		}
		perRound[a]++
	}
	informed := 0
	for t, m := range traj {
		informed += perRound[t]
		if informed != m {
			return fmt.Errorf("arrivals give %d informed after round %d, trajectory %d", informed, t, m)
		}
	}
	return nil
}
