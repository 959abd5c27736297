package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"meg/internal/rng"
	"meg/internal/serve"
	"meg/internal/spec"
)

// The serve-mixed traffic: a closed loop of serveClients clients, each
// submitting its next spec only after the previous job's terminal SSE
// event. Specs come from a seeded plan shared by the clients, laid out
// in blocks of planBlock items in seeded order: planFresh new specs
// (cycling through the three kinds), planPrevious repeats of the item
// just before (coalesced when the other client still runs it) and the
// rest repeats of one of the last repeatWindow fresh specs (cache hits).
// Fixed block counts keep the traffic's composition, and so its cost,
// the same for every seed. Cache hits are kept well above half of the
// jobs so that the median job time sits inside the cache-hit cluster
// instead of jumping between the hit and simulation clusters, and so
// that a 20 s run completes over a thousand jobs on an unshared host.
const (
	serveClients = 2
	mixN         = 2048
	mixTrials    = 2
	planBlock    = 20
	planFresh    = 4
	planPrevious = 1
	repeatWindow = 64
	// minJobs keeps a run going past its deadline until this many jobs
	// have been submitted, so that job_ms_p99 has at least ten samples
	// beyond it even when the host is slow.
	minJobs = 1000
)

// serveWorkload drives megserve started in-process on a loopback
// listener, configured as the megserve binary's defaults.
type serveWorkload struct{}

func serveMixed() serveWorkload { return serveWorkload{} }

func (serveWorkload) name() string { return "serve-mixed" }

// mixSpec is fresh spec kind (0 geometric flooding, 1 edge flooding,
// 2 lossy gossip on the geometric model) at the given seed.
func mixSpec(kind int, seed uint64) spec.Spec {
	s := spec.Spec{Trials: mixTrials, Seed: seed}
	switch kind {
	case 0:
		s.Model = spec.Model{Name: "geometric", N: mixN, RFrac: 0.5}
	case 1:
		s.Model = spec.Model{Name: "edge", N: mixN}
	default:
		s.Model = spec.Model{Name: "geometric", N: mixN, RFrac: 0.5}
		s.Protocol = spec.Protocol{Name: "lossy", Loss: 0.2}
	}
	return s
}

// mixPlan is the seeded submission sequence: item k is the same spec
// for a given seed however the clients interleave.
type mixPlan struct {
	mu    sync.Mutex
	r     *rng.RNG
	kind0 int   // kind of the first fresh spec
	slots []int // the current block's item kinds, consumed from the front
	items []spec.Spec
	fresh []int // indices of fresh items
}

// Plan slot kinds.
const (
	slotFresh = iota
	slotPrevious
	slotRepeat
)

func newMixPlan(seed uint64) *mixPlan {
	r := rng.New(seed)
	return &mixPlan{r: r, kind0: r.Intn(3)}
}

// submitted is the number of items handed out so far.
func (p *mixPlan) submitted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}

// next returns the next item and its index.
func (p *mixPlan) next() (int, spec.Spec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.slots) == 0 {
		for i := 0; i < planBlock; i++ {
			switch {
			case i < planFresh:
				p.slots = append(p.slots, slotFresh)
			case i < planFresh+planPrevious:
				p.slots = append(p.slots, slotPrevious)
			default:
				p.slots = append(p.slots, slotRepeat)
			}
		}
		p.r.Shuffle(len(p.slots), func(i, j int) { p.slots[i], p.slots[j] = p.slots[j], p.slots[i] })
	}
	slot := p.slots[0]
	p.slots = p.slots[1:]
	k := len(p.items)
	var s spec.Spec
	switch {
	case slot == slotFresh || len(p.fresh) == 0:
		s = mixSpec((p.kind0+len(p.fresh))%3, p.r.Uint64()|1)
		p.fresh = append(p.fresh, k)
	case slot == slotPrevious:
		s = p.items[k-1]
	default:
		w := p.fresh[max(0, len(p.fresh)-repeatWindow):]
		s = p.items[w[p.r.Intn(len(w))]]
	}
	p.items = append(p.items, s)
	return k, s
}

// server is an in-process megserve.
type server struct {
	url   string
	srv   *http.Server
	sched *serve.Scheduler
	done  chan error
}

// startServer wires cache, executor, scheduler and API exactly as the
// megserve binary does with its default flags, and serves on a loopback
// port.
func startServer() (*server, error) {
	cache, err := serve.NewCache(256, "")
	if err != nil {
		return nil, err
	}
	exec := &serve.Executor{}
	sched := serve.NewShardedScheduler(1, 2, 64, exec, cache)
	sched.Instrument(serve.NewMetrics())
	exec.Metrics = sched.Metrics()
	api := serve.NewServer(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: api.Handler()}, sched: sched, done: make(chan error, 1)}
	//meg:allow-go HTTP listener of the in-process server; stop waits for it and it never touches simulation state
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down, waits for Serve to return and closes the
// scheduler. The client's idle connections are closed first: Shutdown
// waits up to five seconds for a connection that never carried a
// request.
func (s *server) stop(client *http.Client) error {
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	s.sched.Close()
	return err
}

// measureServerSetup times server start to the first healthy /healthz
// and returns the median in seconds.
func measureServerSetup(client *http.Client) (float64, error) {
	var times []float64
	for start, i := time.Now(), 0; !setupDone(i, start); i++ {
		t0 := time.Now()
		s, err := startServer()
		if err != nil {
			return 0, err
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz: status %d", resp.StatusCode)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if stopErr := s.stop(client); err == nil {
			err = stopErr
		}
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// jobRecord is one client job: submit, stream to the terminal event,
// fetch the result. Times are nanoseconds since the run started.
type jobRecord struct {
	index     int
	hash      string
	outcome   string
	start     int64
	submitted int64 // submit response read
	terminal  int64 // terminal SSE event read
	fetched   int64 // result read
	result    []byte
	err       error
}

// doJob runs one closed-loop job against the server.
func doJob(client *http.Client, url string, origin time.Time, k int, sp spec.Spec) jobRecord {
	rec := jobRecord{index: k, start: int64(time.Since(origin))}
	body, err := json.Marshal(sp)
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	var sub struct {
		ID      string `json:"id"`
		Hash    string `json:"hash"`
		Outcome string `json:"outcome"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	drain(resp)
	rec.submitted = int64(time.Since(origin))
	if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	rec.hash, rec.outcome = sub.Hash, sub.Outcome

	terminal, err := awaitTerminal(client, url+"/v1/jobs/"+sub.ID+"/events")
	rec.terminal = int64(time.Since(origin))
	if err == nil && terminal != "done" {
		err = fmt.Errorf("terminal event %q", terminal)
	}
	if err != nil {
		rec.err = fmt.Errorf("events: %w", err)
		return rec
	}

	resp, err = client.Get(url + "/v1/jobs/" + sub.ID)
	if err != nil {
		rec.err = fmt.Errorf("fetch: %w", err)
		return rec
	}
	var view struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	drain(resp)
	rec.fetched = int64(time.Since(origin))
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("status %d", resp.StatusCode)
	case view.Status != "done" || len(view.Result) == 0:
		err = fmt.Errorf("job %s is %s with %d result bytes", sub.ID, view.Status, len(view.Result))
	}
	if err != nil {
		rec.err = fmt.Errorf("fetch: %w", err)
		return rec
	}
	rec.result = view.Result
	return rec
}

// drain reads the rest of a response body and closes it, so the
// keep-alive connection can be reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// awaitTerminal reads a job's SSE stream up to its terminal event and
// returns the event type.
func awaitTerminal(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		typ, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch typ {
		case "done", "error", "canceled":
			return typ, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("stream ended without a terminal event")
}

// resultHash extracts the content hash a result reports.
func resultHash(result []byte) (string, error) {
	var r struct {
		Hash string `json:"hash"`
	}
	err := json.Unmarshal(result, &r)
	return r.Hash, err
}

// bytesSum is the FNV-1a checksum of a result's bytes.
func bytesSum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// scrape reads one /metrics exposition into series → value.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeDelta is after − before for every series in after.
func scrapeDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sumPrefix adds every delta series whose key starts with prefix.
func sumPrefix(d map[string]float64, prefix string) float64 {
	total := 0.0
	for k, v := range d {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// histogramP50 estimates a histogram's median from its cumulative
// bucket deltas, interpolating linearly inside the bucket that holds it.
func histogramP50(d map[string]float64, name string) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range d {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		x, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err != nil {
			continue // +Inf parses, anything else is not a bucket
		}
		bs = append(bs, bucket{x, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := bs[len(bs)-1].cum / 2
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if b.le > 1e300 || b.cum == prev {
				return lo
			}
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// run drives the closed loop for cfg.seconds.
func (w serveWorkload) run(cfg config, traced bool) (*outcome, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop(client)
	before, err := scrape(client, srv.url)
	if err != nil {
		return nil, err
	}
	rtBefore := readRuntime()
	plan := newMixPlan(cfg.seed)
	perClient := make([][]jobRecord, serveClients)
	origin := time.Now()
	deadline := origin.Add(cfg.seconds)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		//meg:allow-go closed-loop HTTP clients; each writes only its own record slice and run waits for all of them
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) || plan.submitted() < minJobs {
				k, sp := plan.next()
				perClient[c] = append(perClient[c], doJob(client, srv.url, origin, k, sp))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(origin).Seconds()
	rtAfter := readRuntime()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	after, err := scrape(client, srv.url)
	if err != nil {
		return nil, err
	}
	setupS, err := measureServerSetup(client)
	if err != nil {
		return nil, err
	}
	d := scrapeDelta(before, after)

	var recs []jobRecord
	for _, rs := range perClient {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].index < recs[j].index })
	o := newOutcome()
	first := map[string][]byte{}
	outcomes := map[string]int{}
	var jobMS, submitMS []float64
	resultBytes := 0
	for i, r := range recs {
		if r.index != i {
			return nil, fmt.Errorf("plan item %d missing from the run", i)
		}
		// A job that failed before its terminal event counts up to the
		// failure.
		jobMS = append(jobMS, float64(max(r.terminal, r.submitted)-r.start)/1e6)
		submitMS = append(submitMS, float64(r.submitted-r.start)/1e6)
		outcomes[r.outcome]++
		resultBytes += len(r.result)
		o.add(bytesSum(r.result), checkJob(r, first))
	}
	// The server's own counters must agree with what the clients saw.
	for _, oc := range []string{"queued", "coalesced", "cached"} {
		if got := d[`meg_jobs_submitted_total{outcome="`+oc+`"}`]; got != float64(outcomes[oc]) {
			o.problems = append(o.problems, fmt.Sprintf("server counted %g %s submissions, clients %d", got, oc, outcomes[oc]))
		}
	}
	rounds := d["meg_engine_rounds_total"]
	o.roundsPerS = rounds / wall
	if !traced {
		o.metrics["rounds_per_s"] = o.roundsPerS
		o.metrics["setup_s"] = setupS
		o.metrics["peak_rss_mb"] = rss
		o.metrics["job_ms_p50"] = median(jobMS)
		o.metrics["job_ms_p99"] = percentile(jobMS, 0.99)
		o.metrics["jobs_per_s"] = float64(len(recs)) / wall
		return o, nil
	}

	if err := writeSpans(cfg.traceDir, w.name(), cfg.seed, jobSpans(recs)); err != nil {
		return nil, err
	}
	m := o.metrics
	jobs := float64(len(recs))
	phase := func(p string) float64 { return d[`meg_phase_seconds_total{phase="`+p+`"}`] }
	// Engine phase seconds are summed over the jobs and trials that run
	// concurrently, so on this workload the shares may add up past 1.
	m["snapshot.self_s"] = phase("snapshot")
	m["snapshot.share"] = phase("snapshot") / wall
	m["step.self_s"] = phase("step")
	m["step.share"] = phase("step") / wall
	m["delta_apply.self_s"] = phase("delta_apply")
	m["delta_apply.share"] = phase("delta_apply") / wall
	m["core.kernel_self_s"] = phase("kernel") - phase("merge")
	m["core.kernel_share"] = (phase("kernel") - phase("merge")) / wall
	m["core.merge_s"] = phase("merge")
	m["core.rounds"] = rounds
	for _, name := range []string{"snapshot.alloc_mb", "snapshot.edges_per_round", "snapshot.ns_per_edge",
		"step.alloc_mb", "step.churn_per_round", "step.ns_per_churn", "delta_apply.alloc_mb",
		"delta_apply.ns_per_churn", "core.straggler_rounds", "core.straggler_kernel_ms", "flood.unattributed_s"} {
		m[name] = 0
	}
	var factoryS, resetS float64
	for kind := 0; kind < 3; kind++ {
		st, err := measureSetup(mixSpec(kind, cfg.seed|1), cfg.seed)
		if err != nil {
			return nil, err
		}
		factoryS += st.factory / 3
		resetS += st.reset / 3
	}
	m["setup.factory_s"] = factoryS
	m["setup.reset_s"] = resetS
	rtAfter.sub(rtBefore).into(m)
	m["serve.submit_ms_p50"] = median(submitMS)
	m["serve.queue_wait_ms_p50"] = 1000 * histogramP50(d, "meg_job_wait_seconds")
	m["serve.run_ms_p50"] = 1000 * histogramP50(d, "meg_job_run_seconds")
	m["serve.cache_hit_ratio"] = float64(outcomes["cached"]) / jobs
	m["serve.coalesced_ratio"] = float64(outcomes["coalesced"]) / jobs
	m["serve.executor_runs"] = sumPrefix(d, "meg_executor_jobs_total{")
	m["serve.result_kb"] = float64(resultBytes) / jobs / 1024
	// The split above comes from the server's own counters: no tracer
	// runs, so there is no tracing cost to report.
	m["trace.overhead"] = 0
	return o, nil
}

// checkJob checks one job: it finished, its result reports the hash it
// was submitted under, and it is byte-identical to the first result of
// that hash (first maps hash → first result bytes).
func checkJob(r jobRecord, first map[string][]byte) error {
	if r.err != nil {
		return r.err
	}
	switch r.outcome {
	case "queued", "coalesced", "cached":
	default:
		return fmt.Errorf("unknown outcome %q", r.outcome)
	}
	h, err := resultHash(r.result)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if h != r.hash {
		return fmt.Errorf("result reports hash %s, submitted as %s", h, r.hash)
	}
	if f, ok := first[r.hash]; !ok {
		first[r.hash] = r.result
	} else if !bytes.Equal(f, r.result) {
		return fmt.Errorf("%s result for %s differs from the first result of that hash", r.outcome, r.hash[:12])
	}
	return nil
}

// jobSpans lays the run's jobs out as a span tree: run → job →
// submit, events, fetch.
func jobSpans(recs []jobRecord) []spanJSON {
	end := int64(0)
	for _, r := range recs {
		end = max(end, r.fetched, r.terminal)
	}
	spans := []spanJSON{{ID: 0, Parent: -1, Name: "run", EndNS: end}}
	for _, r := range recs {
		id := len(spans)
		stop := max(r.fetched, r.terminal, r.submitted)
		spans = append(spans,
			spanJSON{ID: id, Parent: 0, Name: "job." + r.outcome, StartNS: r.start, EndNS: stop},
			spanJSON{ID: id + 1, Parent: id, Name: "submit", StartNS: r.start, EndNS: r.submitted},
			spanJSON{ID: id + 2, Parent: id, Name: "events", StartNS: r.submitted, EndNS: r.terminal},
			spanJSON{ID: id + 3, Parent: id, Name: "fetch", StartNS: r.terminal, EndNS: r.fetched})
	}
	return spans
}

// verify re-executes a seeded sample of the run's distinct specs on an
// in-process serve.Executor and compares the bytes with the server's,
// and at the committed seed compares the pinned checksums.
func (w serveWorkload) verify(cfg config, o *outcome) error {
	if cfg.seed == committedSeed {
		checkPinned(w.name(), o)
	}
	plan := newMixPlan(cfg.seed)
	byHash := map[string]int{} // hash → first item index
	var hashes []string
	for i := range o.sums {
		_, sp := plan.next()
		h, err := sp.Hash()
		if err != nil {
			return err
		}
		if _, ok := byHash[h]; !ok {
			byHash[h] = i
			hashes = append(hashes, h)
		}
	}
	r := rng.New(rng.SeedFor(cfg.seed, 1<<20))
	for s := 0; s < 3 && len(hashes) > 0; s++ {
		j := r.Intn(len(hashes))
		i := byHash[hashes[j]]
		hashes = append(hashes[:j], hashes[j+1:]...)
		sum, err := executorSum(plan.items[i])
		if err != nil {
			return err
		}
		if sum != o.sums[i] {
			o.fail(i, "server result checksum %s, in-process executor %s", o.sums[i], sum)
		}
	}
	return nil
}

// executorSum runs a spec on a fresh in-process executor and returns
// the checksum of its marshaled result.
func executorSum(sp spec.Spec) (string, error) {
	res, err := (&serve.Executor{}).Execute(context.Background(), sp, nil)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return bytesSum(b), nil
}

// pin computes the checksums of the first count planned results at
// the committed seed.
func (w serveWorkload) pin(count int) ([]string, error) {
	plan := newMixPlan(committedSeed)
	var sums []string
	for i := 0; i < count; i++ {
		_, sp := plan.next()
		sum, err := executorSum(sp)
		if err != nil {
			return nil, err
		}
		sums = append(sums, sum)
	}
	return sums, nil
}
