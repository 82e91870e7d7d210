package main

import (
	"context"
	"database/sql"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gignite"
	_ "gignite/driver"
	"gignite/internal/server"
)

// adhoc-serve: two database/sql connections reach an in-process server on
// loopback with ad-hoc joins (mostly distinct plan-cache digests), a
// prepared statement (always planned already) and wide results, so
// parsing, planning, the plan cache, the wire protocol, the server and the
// driver do most of the work and the executor little.
//
// It is not a workload of BENCHMARK.json: a known server defect fails a
// few of its requests in every run, at a rate that changes from run to
// run (see adhoc-plan, which sends the same mix in-process). The failures
// are counted, not retried.
//
// The sizes follow from what the workload is for, and the traced run
// prints the figures that check them (the work split and request-kind
// lines):
//   - SF 0.001 keeps execution short next to planning; two clients are
//     the host's two cores and the smallest client count of the paper's
//     multi-client runs.
//   - 48 literal sets per join template give 240 join texts, nearly four
//     times the 64-plan cache, so about three joins in four miss it and
//     are planned from scratch.
//   - The request shares keep the ad-hoc joins a majority (the pooled
//     median is a join, so planning moves it), give the cached-plan path
//     of the prepared statement the next largest share, and give the wide
//     reads, whose time is result streaming, about a fifth of the client
//     time.
const (
	adhocServeSF   = 0.001
	adhocClients   = 2
	adhocPerTpl    = 48
	adhocWideTexts = 8
)

// adhocEnv is one set-up of adhoc-serve: engine, server and client pool.
type adhocEnv struct {
	eng    *gignite.Engine
	srv    *server.Server
	served chan error
	db     *sql.DB
	closed bool
}

// close stops the environment; a second call does nothing.
func (a *adhocEnv) close() {
	if a.closed {
		return
	}
	a.closed = true
	if a.db != nil {
		_ = a.db.Close()
	}
	if a.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = a.srv.Shutdown(ctx)
		cancel()
		<-a.served
	}
	_ = a.eng.Close()
}

func setupAdhoc(sf float64, seed int64) (*adhocEnv, setupTimes, error) {
	e, st, err := setupTPCH(sf, seed)
	if err != nil {
		return nil, st, err
	}
	t := time.Now()
	env := &adhocEnv{eng: e, srv: server.New(e, server.Config{}), served: make(chan error, 1)}
	if err := env.srv.Listen(); err != nil {
		_ = e.Close()
		return nil, st, err
	}
	go func() { env.served <- env.srv.Serve() }()
	env.db, err = sql.Open("gignite", env.srv.Addr().String())
	if err == nil {
		env.db.SetMaxOpenConns(adhocClients)
		env.db.SetMaxIdleConns(adhocClients)
		err = env.db.Ping()
	}
	if err != nil {
		env.close()
		return nil, st, err
	}
	st.server = time.Since(t).Seconds()
	st.total += st.server
	return env, st, nil
}

// adhocReq is one request of the seeded sequence.
type adhocReq struct {
	tpl  string
	text string // SQL text; for the prepared statement, its literal form
	arg  int64  // prepared statement argument
	ref  []string
}

// adhocPool holds the literal sets every request is chosen from, with
// their reference answers.
type adhocPool struct {
	joins    [][]adhocReq // per template
	prepared []adhocReq
	wide     []adhocReq
}

// buildAdhocTexts draws the pool's texts from the seed, without answers.
func buildAdhocTexts(seed int64, perTpl, wide int) adhocPool {
	var p adhocPool
	r := newRNG(seed, "adhoc-literals")
	for _, t := range adhocTemplates {
		seen := map[string]bool{}
		var reqs []adhocReq
		for len(reqs) < perTpl {
			text := t.gen(r)
			if !seen[text] {
				seen[text] = true
				reqs = append(reqs, adhocReq{tpl: t.name, text: text})
			}
		}
		p.joins = append(p.joins, reqs)
	}
	for i := 0; i < perTpl; i++ {
		k := int64(r.between(1, 300))
		p.prepared = append(p.prepared, adhocReq{tpl: "prepared", arg: k,
			text: strings.Replace(preparedSQL, "?", strconv.FormatInt(k, 10), 1)})
	}
	for i := 0; i < wide; i++ {
		p.wide = append(p.wide, adhocReq{tpl: "wide", text: wideSQL(r)})
	}
	return p
}

func (p *adhocPool) each(f func(*adhocReq) error) error {
	for _, reqs := range p.joins {
		for i := range reqs {
			if err := f(&reqs[i]); err != nil {
				return err
			}
		}
	}
	for i := range p.prepared {
		if err := f(&p.prepared[i]); err != nil {
			return err
		}
	}
	for i := range p.wide {
		if err := f(&p.wide[i]); err != nil {
			return err
		}
	}
	return nil
}

// references computes every request's answer with the reference
// interpreter.
func (p *adhocPool) references(e *gignite.Engine) error {
	return p.each(func(r *adhocReq) error {
		rows, err := e.ReferenceQuery(r.text)
		if err != nil {
			return fmt.Errorf("reference %s: %w", abbrev(r.text), err)
		}
		r.ref = canonEngine(rows)
		return nil
	})
}

// draw picks the next request: 60% ad-hoc joins, 25% prepared, 15% wide.
func (p *adhocPool) draw(r *rng) adhocReq {
	switch k := r.intn(100); {
	case k < 60:
		reqs := p.joins[r.intn(len(p.joins))]
		return reqs[r.intn(len(reqs))]
	case k < 85:
		return p.prepared[r.intn(len(p.prepared))]
	default:
		return p.wide[r.intn(len(p.wide))]
	}
}

// templateSamples returns the first n texts of every template.
func (p *adhocPool) templateSamples(n int) []string {
	var out []string
	add := func(reqs []adhocReq) {
		for i := 0; i < n && i < len(reqs); i++ {
			out = append(out, reqs[i].text)
		}
	}
	for _, reqs := range p.joins {
		add(reqs)
	}
	add(p.prepared)
	add(p.wide)
	return out
}

// wireLayers accumulates what the client side of the wire sees.
type wireLayers struct {
	mu      sync.Mutex
	queries int
	wallNs  float64 // client wall per request
	rows    float64
	rowsNs  float64 // time spent reading result rows
}

func runAdhocServe(p params) (*outcome, error) {
	sf := scale(adhocServeSF)
	setupOne := func() (*adhocEnv, setupTimes, error) { return setupAdhoc(sf, p.seed) }
	closeEnv := func(a *adhocEnv) { a.close() }
	setup := &setupStats{}
	env, err := setupSeries(setup, setupOne, closeEnv, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	// finishSetups closes the measured environment and times the second
	// series of set-ups.
	finishSetups := func() error {
		env.close()
		_, err := setupSeries(setup, setupOne, closeEnv, false)
		return err
	}
	e := env.eng

	pool := buildAdhocTexts(p.seed, adhocPerTpl, adhocWideTexts)
	if err := pool.references(e); err != nil {
		return nil, err
	}
	ctx := context.Background()
	stmt, err := env.db.PrepareContext(ctx, preparedSQL)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	defer stmt.Close()

	exec := func(rq adhocReq) func() (*sql.Rows, error) {
		if rq.tpl == "prepared" {
			return func() (*sql.Rows, error) { return stmt.QueryContext(ctx, rq.arg) }
		}
		return func() (*sql.Rows, error) { return env.db.QueryContext(ctx, rq.text) }
	}
	// Warm-up: a few requests of every kind over both connections.
	warm := newRecorder()
	for _, reqs := range [][]adhocReq{pool.joins[0], pool.prepared, pool.wide} {
		for i := 0; i < 4 && i < len(reqs); i++ {
			wireRead(warm, reqs[i].tpl, exec(reqs[i]), reqs[i].ref, nil, nil, -1)
		}
	}

	var reqID atomic.Int64
	rngs := make([]*rng, adhocClients)
	for c := range rngs {
		rngs[c] = newRNG(p.seed, fmt.Sprintf("adhoc-client-%d", c))
	}
	loop := func(rec *recorder, tr *tracer, wl *wireLayers) func(int, int) {
		return func(c, _ int) {
			rq := pool.draw(rngs[c])
			wireRead(rec, rq.tpl, exec(rq), rq.ref, tr, wl, reqID.Add(1))
		}
	}

	out := &outcome{setup: setup}
	if !p.trace {
		rec := newRecorder()
		ph := runPhase(e, adhocClients, p.seconds, rec, loop(rec, nil, nil))
		if err := finishSetups(); err != nil {
			return nil, err
		}
		out.e2e = ph.endToEnd(setup.med, setup.heapMB)
		out.extras = ph.extras()
		out.notes = []string{fmt.Sprintf("sf=%g clients=%d loop=closed transport=loopback database/sql", sf, adhocClients), sampleNote(rec), kindShares(rec)}
		out.totals = tally(warm, rec)
		return out, nil
	}

	tr := newTracer()
	stages, err := profileTemplates(e, pool.templateSamples(4), 3, tr)
	if err != nil {
		return nil, err
	}
	urec, trec := newRecorder(), newRecorder()
	wl := &wireLayers{}
	untraced, traced := runInterleaved(e, adhocClients, p.seconds, urec, loop(urec, nil, nil), trec, loop(trec, tr, wl))

	// ExecStats and Result.Obs stay on the server side of the wire, so the
	// executor-side numbers come from replaying the seeded request mix
	// in-process on the same engine right after the traced phase.
	rrec := newRecorder()
	layers := &execLayers{}
	replayRNG := newRNG(p.seed, "adhoc-replay")
	pstmt, err := e.Prepare(preparedSQL)
	if err != nil {
		return nil, err
	}
	runPhase(e, 1, p.seconds/8, rrec, func(int, int) {
		rq := pool.draw(replayRNG)
		engineRead(rrec, rq.tpl, adhocQuery(e, pstmt, rq), rq.ref, tr, layers, reqID.Add(1))
	})
	if err := finishSetups(); err != nil {
		return nil, err
	}

	out.layers = append(stages.metrics(), traced.planCacheMetrics()...)
	out.layers = append(out.layers, layers.metrics()...)
	out.layers = append(out.layers, setupMetrics(setup.med)...)
	out.layers = append(out.layers, traced.goMetrics()...)
	out.layers = append(out.layers, overhead(untraced, traced)...)
	out.extras = wl.metrics(traced)
	out.notes = []string{fmt.Sprintf("sf=%g clients=%d loop=closed transport=loopback database/sql traced", sf, adhocClients),
		sampleNote(trec), overheadNote(untraced, traced), kindShares(trec), wl.split(traced, layers),
		fmt.Sprintf("in-process replay of the same mix for the executor layers, %d requests, %s", rrec.attempted, layers.split())}
	out.totals = tally(warm, urec, trec, rrec)
	out.selfMs, err = tr.write(tracePath("adhoc-serve", p.seed), "adhoc-serve", p.seed, append(out.layers, out.extras...))
	return out, err
}

// wireRead sends one request through database/sql, reads every row,
// records the client-side latency and checks the answer. Traced, it
// records the request, the driver call and the row stream as spans.
func wireRead(rec *recorder, tpl string, query func() (*sql.Rows, error), want []string, tr *tracer, wl *wireLayers, req int64) {
	root := tr.begin("client.request", -1, req)
	defer tr.end(root)
	t := time.Now()
	call := tr.begin("driver.query", root, req)
	rows, err := query()
	tr.end(call)
	if err != nil {
		rec.fail(tpl, err)
		return
	}
	stream := tr.begin("driver.rows", root, req)
	tRows := time.Now()
	var got [][]any
	cols, err := rows.Columns()
	if err == nil {
		for rows.Next() {
			vals := make([]any, len(cols))
			ptrs := make([]any, len(cols))
			for i := range vals {
				ptrs[i] = &vals[i]
			}
			if err = rows.Scan(ptrs...); err != nil {
				break
			}
			got = append(got, vals)
		}
	}
	if err == nil {
		err = rows.Err()
	}
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	d := time.Since(t)
	rowsDur := time.Since(tRows)
	tr.end(stream)
	if err != nil {
		rec.fail(tpl, err)
		return
	}
	chk := tr.begin("check", root, req)
	canon := make([]string, len(got))
	for i, vals := range got {
		canon[i] = canonDriver(vals)
	}
	sort.Strings(canon)
	ok, detail := sameRows(canon, want)
	tr.end(chk)
	rec.read(tpl, d, ok, detail)
	if wl != nil {
		wl.mu.Lock()
		wl.queries++
		wl.wallNs += float64(d)
		wl.rows += float64(len(got))
		wl.rowsNs += float64(rowsDur)
		wl.mu.Unlock()
	}
}

// wallMs returns the mean client wall time per request and the engine's
// mean query wall time over phase ph, in ms.
func (wl *wireLayers) wallMs(ph phase) (client, engine float64) {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	return ratio(wl.wallNs, float64(wl.queries)) / 1e6, ratio(ph.eng.wallSum, ph.eng.wallCount) * 1e3
}

// split states how the mean request's client wall time divides. The
// engine's query_wall_seconds times execution only; plan acquisition comes
// from the in-process replay of the same mix, whose ExecStats the client
// can see; the remainder is the server, the wire and the driver.
func (wl *wireLayers) split(ph phase, replay *execLayers) string {
	client, exec := wl.wallMs(ph)
	plan := replay.planMs()
	rest := client - exec - plan
	return fmt.Sprintf("work split per request: client wall %.3f ms = execution %.3f ms (%.0f%%) + plan acquisition %.3f ms (%.0f%%) + server/wire/driver %.3f ms (%.0f%%)",
		client, exec, 100*ratio(exec, client), plan, 100*ratio(plan, client), rest, 100*ratio(rest, client))
}

// kindShares states each request kind's share of the requests and of the
// summed client wall time.
func kindShares(rec *recorder) string {
	n, ms := map[string]float64{}, map[string]float64{}
	var totalN, totalMs float64
	for tpl, xs := range rec.lat {
		kind, _, _ := strings.Cut(tpl, "-")
		for _, x := range xs {
			n[kind]++
			ms[kind] += x
			totalN++
			totalMs += x
		}
	}
	var sb strings.Builder
	sb.WriteString("request kinds, share of requests / of client wall time:")
	for _, k := range sortedKeys(n) {
		fmt.Fprintf(&sb, " %s %.0f%%/%.0f%%;", k, 100*n[k]/totalN, 100*ms[k]/totalMs)
	}
	return sb.String()
}

// metrics reports the serving-path layers of the traced phase: server
// overhead is client wall minus the engine's query_wall_seconds, which
// starts at execution, so it holds plan acquisition too.
func (wl *wireLayers) metrics(ph phase) []metric {
	clientMs, engineMs := wl.wallMs(ph)
	wl.mu.Lock()
	defer wl.mu.Unlock()
	return []metric{
		{"server.overhead_ms", "ms", clientMs - engineMs},
		{"wire.bytes_per_query", "bytes", ratio(ph.eng.bytesSent+ph.eng.bytesRecv, ph.eng.serverQueries)},
		{"wire.frames_per_query", "count", ratio(ph.eng.frames, ph.eng.serverQueries)},
		{"driver.rows_per_s", "1/s", ratio(wl.rows, wl.rowsNs/1e9)},
	}
}
