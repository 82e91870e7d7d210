package main

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"gignite"
	"gignite/internal/engineflags"
	"gignite/internal/harness"
	"gignite/internal/obs"
	"gignite/internal/tpch"
)

// sites is the cluster size the gignited daemon serves by default.
const sites = 4

// A run times set-ups in two series, one before and one after its timed
// phase, so they sample the host across the run as the other metrics do.
// Each series sets the engine up at least minSetupReps/2 times and until
// setupBudget/2 has passed (at most maxSetupReps/2); setup_s is the median
// of both, so one slow set-up does not move it and short set-ups get more
// repeats.
const (
	minSetupReps = 6
	maxSetupReps = 60
	setupBudget  = 4 * time.Second
)

// metric is one named, measured number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// engineOptions composes the engine exactly as cmd/gignited does with its
// default flags: IC+M, 4 sites, a 64-plan cache, no admission control,
// runtime filters and adaptive execution off, the work limit scaled to the
// scale factor.
func engineOptions(sf float64) ([]gignite.Option, error) {
	ef := engineflags.Bind(flag.NewFlagSet("gignited", flag.ContinueOnError),
		engineflags.Defaults{System: "ic+m", PlanCache: 64})
	opts, err := ef.Options(sites)
	if err != nil {
		return nil, err
	}
	return append(opts, gignite.WithExecLimits(harness.WorkLimitFor(sf), 0)), nil
}

// setupTimes splits one set-up into its stages, in seconds.
type setupTimes struct {
	gen, load, index, analyze, server, total float64
}

// setupTPCH creates the TPC-H schema, generates data from the run's seed,
// loads it, builds the secondary indexes and collects statistics: the
// stages tpch.Setup runs, timed one by one.
func setupTPCH(sf float64, seed int64) (*gignite.Engine, setupTimes, error) {
	var st setupTimes
	opts, err := engineOptions(sf)
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	e := gignite.Open(opts...)
	for _, ddl := range tpch.DDL() {
		if _, err := e.Exec(ddl); err != nil {
			return nil, st, fmt.Errorf("ddl: %w", err)
		}
	}
	g := tpch.NewGen(sf)
	g.Seed = uint64(newRNG(seed, "tpch-gen").next())
	t := time.Now()
	names := tpch.TableNames()
	data := make([][]gignite.Row, len(names))
	for i, name := range names {
		if data[i], err = g.Table(name); err != nil {
			return nil, st, err
		}
	}
	st.gen = time.Since(t).Seconds()
	t = time.Now()
	for i, name := range names {
		if err := e.LoadTable(name, data[i]); err != nil {
			return nil, st, fmt.Errorf("load %s: %w", name, err)
		}
	}
	st.load = time.Since(t).Seconds()
	t = time.Now()
	for _, ddl := range tpch.IndexDDL() {
		if _, err := e.Exec(ddl); err != nil {
			return nil, st, fmt.Errorf("index ddl: %w", err)
		}
	}
	st.index = time.Since(t).Seconds()
	t = time.Now()
	if err := e.Analyze(); err != nil {
		return nil, st, err
	}
	st.analyze = time.Since(t).Seconds()
	st.total = time.Since(t0).Seconds()
	return e, st, nil
}

// setupStats is a run's set-ups: per-stage medians, the live heap after
// the one the run measures and every repeat, for the summary.
type setupStats struct {
	med    setupTimes
	heapMB float64
	reps   []setupTimes
}

// setupSeries times one series of set-ups into s, closing each
// environment but the last. With keep it returns the last one open and
// records the live heap after a forced collection; without, it closes it
// too and returns the zero E.
func setupSeries[E any](s *setupStats, setup func() (E, setupTimes, error), closeEnv func(E), keep bool) (E, error) {
	var env E
	start := time.Now()
	for i := 0; i < maxSetupReps/2 && (i < minSetupReps/2 || time.Since(start) < setupBudget/2); i++ {
		if i > 0 {
			closeEnv(env)
		}
		// Collect the previous set-up's garbage outside the timed stages.
		runtime.GC()
		var st setupTimes
		var err error
		env, st, err = setup()
		if err != nil {
			var zero E
			return zero, fmt.Errorf("setup: %w", err)
		}
		s.reps = append(s.reps, st)
	}
	for _, f := range setupStages {
		*f.field(&s.med) = median(s.stage(f.field))
	}
	if !keep {
		closeEnv(env)
		var zero E
		return zero, nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return env, nil
}

// setupStages names the fields of setupTimes.
var setupStages = []struct {
	name  string
	field func(*setupTimes) *float64
}{
	{"gen", func(s *setupTimes) *float64 { return &s.gen }},
	{"load", func(s *setupTimes) *float64 { return &s.load }},
	{"index", func(s *setupTimes) *float64 { return &s.index }},
	{"analyze", func(s *setupTimes) *float64 { return &s.analyze }},
	{"server", func(s *setupTimes) *float64 { return &s.server }},
	{"total", func(s *setupTimes) *float64 { return &s.total }},
}

// stage returns one stage's time in every repeat.
func (s setupStats) stage(field func(*setupTimes) *float64) []float64 {
	xs := make([]float64, len(s.reps))
	for i := range s.reps {
		xs[i] = *field(&s.reps[i])
	}
	return xs
}

// note states how many set-ups the run timed and each stage's spread.
func (s setupStats) note() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "set-ups=%d, seconds min/median/max:", len(s.reps))
	for _, f := range setupStages {
		xs := sortedCopy(s.stage(f.field))
		fmt.Fprintf(&sb, " %s %.4f/%.4f/%.4f;", f.name, xs[0], median(xs), xs[len(xs)-1])
	}
	return sb.String()
}

// recorder collects one phase's outcomes from every client.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // read latency in ms, per template
	modeled   map[string][]float64 // simnet response time in ms, per template (in-process reads)
	writes    []float64            // write latency in ms
	attempted int
	failed    int
	wrong     int
	errs      map[string]int // failure messages, by kind
	mismatch  []string       // first few wrong answers, for the log
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]float64), modeled: make(map[string][]float64), errs: make(map[string]int)}
}

// read records a completed read and whether its answer was right.
func (r *recorder) read(tpl string, d time.Duration, ok bool, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.wrong++
		if len(r.mismatch) < 5 {
			r.mismatch = append(r.mismatch, tpl+": "+detail)
		}
		return
	}
	r.lat[tpl] = append(r.lat[tpl], float64(d)/1e6)
}

// modeledTime records a read's simnet response time, where the client can
// see it.
func (r *recorder) modeledTime(tpl string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.modeled[tpl] = append(r.modeled[tpl], float64(d)/1e6)
}

// write records a completed write.
func (r *recorder) write(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.writes = append(r.writes, float64(d)/1e6)
}

// fail records an operation that returned an error.
func (r *recorder) fail(tpl string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	r.errs[tpl+": "+errKind(err)]++
}

// errKind shortens an error to its stable part (numbers stripped), so
// repeats of one defect count under one key.
func errKind(err error) string {
	msg := strings.ReplaceAll(err.Error(), "\n", " | ")
	if len(msg) > 120 {
		msg = msg[:120]
	}
	return strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return '#'
		}
		return r
	}, msg)
}

func (r *recorder) reads() int {
	n := 0
	for _, xs := range r.lat {
		n += len(xs)
	}
	return n
}

func (r *recorder) pooled() []float64 {
	var all []float64
	for _, xs := range r.lat {
		all = append(all, xs...)
	}
	return sortedCopy(all)
}

// closedLoop runs clients goroutines, each issuing its next request only
// after the previous one returned, until d has passed. It returns the wall
// time from start until the last client finished its last request.
func closedLoop(clients int, d time.Duration, body func(client, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				body(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// engineCounters is a snapshot of the engine registry values a phase
// differences.
type engineCounters struct {
	modeledSum, modeledCount float64
	wallSum, wallCount       float64
	planHits, planMisses     float64
	planEvictions            float64
	bytesSent, bytesRecv     float64
	frames, serverQueries    float64
}

func readCounters(e *gignite.Engine) engineCounters {
	s := e.Metrics()
	h := func(name string) obs.HistogramSnapshot { return s.Histograms[name] }
	return engineCounters{
		modeledSum:    h("query_modeled_seconds").Sum,
		modeledCount:  float64(h("query_modeled_seconds").Count),
		wallSum:       h("query_wall_seconds").Sum,
		wallCount:     float64(h("query_wall_seconds").Count),
		planHits:      s.Counters["plan_cache_hits_total"],
		planMisses:    s.Counters["plan_cache_misses_total"],
		planEvictions: s.Counters["plan_cache_evictions_total"],
		bytesSent:     s.Counters["bytes_sent_total"],
		bytesRecv:     s.Counters["bytes_recv_total"],
		frames:        s.Counters["frames_total"],
		serverQueries: s.Counters["server_queries_total"],
	}
}

// plus returns a + sign*b, field by field.
func (a engineCounters) plus(b engineCounters, sign float64) engineCounters {
	return engineCounters{
		modeledSum: a.modeledSum + sign*b.modeledSum, modeledCount: a.modeledCount + sign*b.modeledCount,
		wallSum: a.wallSum + sign*b.wallSum, wallCount: a.wallCount + sign*b.wallCount,
		planHits: a.planHits + sign*b.planHits, planMisses: a.planMisses + sign*b.planMisses,
		planEvictions: a.planEvictions + sign*b.planEvictions,
		bytesSent:     a.bytesSent + sign*b.bytesSent, bytesRecv: a.bytesRecv + sign*b.bytesRecv,
		frames: a.frames + sign*b.frames, serverQueries: a.serverQueries + sign*b.serverQueries,
	}
}

// phase is one timed closed-loop phase: its recorder plus the engine and
// Go runtime deltas across it.
type phase struct {
	rec     *recorder
	elapsed time.Duration
	eng     engineCounters
	mem     runtime.MemStats // deltas of TotalAlloc, NumGC, PauseTotalNs
}

// runPhase wraps closedLoop with the counter snapshots a phase reports.
func runPhase(e *gignite.Engine, clients int, d time.Duration, rec *recorder, body func(client, i int)) phase {
	var m0, m1 runtime.MemStats
	runtime.GC()
	c0 := readCounters(e)
	runtime.ReadMemStats(&m0)
	elapsed := closedLoop(clients, d, body)
	runtime.ReadMemStats(&m1)
	c1 := readCounters(e)
	var dm runtime.MemStats
	dm.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	dm.NumGC = m1.NumGC - m0.NumGC
	dm.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	return phase{rec: rec, elapsed: elapsed, eng: c1.plus(c0, -1), mem: dm}
}

// interleaveSlice is the length of one untraced or traced slice of a
// traced run.
const interleaveSlice = time.Second

// runInterleaved splits d into alternating untraced and traced slices, so
// both halves of a traced run see the same machine state and, on
// ingest-mixed, the same table growth; their difference is the tracing
// overhead.
func runInterleaved(e *gignite.Engine, clients int, d time.Duration,
	urec *recorder, untracedBody func(client, i int),
	trec *recorder, tracedBody func(client, i int)) (untraced, traced phase) {
	untraced, traced = phase{rec: urec}, phase{rec: trec}
	for untraced.elapsed+traced.elapsed < d {
		untraced.add(runPhase(e, clients, interleaveSlice, urec, untracedBody))
		traced.add(runPhase(e, clients, interleaveSlice, trec, tracedBody))
	}
	return untraced, traced
}

// add folds slice q of the same recorder into p.
func (p *phase) add(q phase) {
	p.elapsed += q.elapsed
	p.eng = p.eng.plus(q.eng, 1)
	p.mem.TotalAlloc += q.mem.TotalAlloc
	p.mem.NumGC += q.mem.NumGC
	p.mem.PauseTotalNs += q.mem.PauseTotalNs
}

// endToEnd computes the end-to-end metrics of a phase.
func (p phase) endToEnd(setup setupTimes, heapMB float64) []metric {
	all := p.rec.pooled()
	// Modeled time is a mean over templates of each template's mean, so
	// the mix of templates a closed loop happens to finish does not move
	// it. Over the wire the client sees no per-query modeled time; there it
	// is the engine's mean over every query of the phase.
	modeled := ratio(p.eng.modeledSum, p.eng.modeledCount) * 1e3
	if len(p.rec.modeled) > 0 {
		var sum float64
		for _, xs := range p.rec.modeled {
			var t float64
			for _, x := range xs {
				t += x
			}
			sum += t / float64(len(xs))
		}
		modeled = sum / float64(len(p.rec.modeled))
	}
	return []metric{
		{"qps", "1/s", float64(len(all)) / p.elapsed.Seconds()},
		{"latency_p50_ms", "ms", percentile(all, 0.5)},
		{"latency_p95_ms", "ms", percentile(all, 0.95)},
		{"latency_geomean_ms", "ms", geomeanOfMedians(p.rec.lat)},
		{"modeled_ms", "ms", modeled},
		{"setup_s", "s", setup.total},
		{"heap_live_mb", "MB", heapMB},
	}
}

// extras are the end-to-end numbers outside the common metric set: the
// failure share on every workload, write latency where there are writes.
func (p phase) extras() []metric {
	out := []metric{{"failed_frac", "ratio", ratio(float64(p.rec.failed), float64(p.rec.attempted))}}
	if len(p.rec.writes) > 0 {
		w := sortedCopy(p.rec.writes)
		out = append(out, metric{"write_p50_ms", "ms", percentile(w, 0.5)},
			metric{"write_p95_ms", "ms", percentile(w, 0.95)})
	}
	return out
}

// planCacheMetrics reports the plan cache over the phase.
func (p phase) planCacheMetrics() []metric {
	return []metric{
		{"plancache.hit_ratio", "ratio", ratio(p.eng.planHits, p.eng.planHits+p.eng.planMisses)},
		{"plancache.evictions", "count", p.eng.planEvictions},
	}
}

// goMetrics reports the Go runtime's allocation and collection over the
// phase.
func (p phase) goMetrics() []metric {
	return []metric{
		{"go.alloc_mb_per_query", "MB", float64(p.mem.TotalAlloc) / (1 << 20) / math.Max(1, float64(p.rec.attempted))},
		{"go.gc_cycles", "count", float64(p.mem.NumGC)},
		{"go.gc_pause_ms", "ms", float64(p.mem.PauseTotalNs) / 1e6},
	}
}

// setupMetrics splits setup_s into its stages.
func setupMetrics(st setupTimes) []metric {
	return []metric{
		{"gen.data_s", "s", st.gen},
		{"storage.load_s", "s", st.load},
		{"storage.index_build_s", "s", st.index},
		{"storage.analyze_s", "s", st.analyze},
	}
}

// overheadNote prints the tracing overhead on the read metrics both kinds
// of slice of a traced run measure: traced minus untraced.
func overheadNote(untraced, traced phase) string {
	u, t := untraced.endToEnd(setupTimes{}, 0), traced.endToEnd(setupTimes{}, 0)
	var sb strings.Builder
	sb.WriteString("tracing overhead (traced slices minus untraced slices):")
	for i := range u {
		if u[i].Name == "setup_s" || u[i].Name == "heap_live_mb" {
			continue
		}
		fmt.Fprintf(&sb, " %s %+.4g %s;", u[i].Name, t[i].Value-u[i].Value, u[i].Unit)
	}
	return sb.String()
}

// overhead reports the tracing overhead on median latency and on
// throughput as percentages of the untraced slices.
func overhead(untraced, traced phase) []metric {
	u, t := untraced.endToEnd(setupTimes{}, 0), traced.endToEnd(setupTimes{}, 0)
	pct := func(name string) float64 {
		for i := range u {
			if u[i].Name == name {
				return 100 * (t[i].Value - u[i].Value) / math.Max(u[i].Value, 1e-9)
			}
		}
		return 0
	}
	return []metric{
		{"trace.overhead_p50_pct", "%", pct("latency_p50_ms")},
		{"trace.overhead_qps_pct", "%", -pct("qps")},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
