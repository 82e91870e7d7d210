package main

import (
	"fmt"

	"gignite"
)

// adhoc-plan: adhoc-serve's seeded request mix sent in-process by one
// client, at adhoc-serve's scale: ad-hoc joins that mostly miss the
// 64-plan cache and are planned from scratch, the prepared statement
// whose plan is retained, and wide lineitem windows. Parsing, binding,
// hep, volcano, fragment splitting and the plan cache do a large share of
// the work, the executor the rest, and no wire, server or driver is in
// the path.
//
// adhoc-serve measures the same mix over the wire but fails a few
// requests in every run on a known server defect (a session clears busy
// only after it has streamed Done, so a back-to-back request can be
// refused as pipelined); its failure count differs from run to run, so it
// cannot be compared between runs. This workload measures the planning
// layers without that path.
func runAdhocPlan(p params) (*outcome, error) {
	sf := scale(adhocServeSF)
	setupOne := func() (*gignite.Engine, setupTimes, error) { return setupTPCH(sf, p.seed) }
	closeEngine := func(e *gignite.Engine) { _ = e.Close() }
	setup := &setupStats{}
	e, err := setupSeries(setup, setupOne, closeEngine, true)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	finishSetups := func() error {
		_ = e.Close()
		_, err := setupSeries(setup, setupOne, closeEngine, false)
		return err
	}

	pool := buildAdhocTexts(p.seed, adhocPerTpl, adhocWideTexts)
	if err := pool.references(e); err != nil {
		return nil, err
	}
	pstmt, err := e.Prepare(preparedSQL)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	// Warm-up: a few requests of every kind.
	warm := newRecorder()
	for _, reqs := range [][]adhocReq{pool.joins[0], pool.prepared, pool.wide} {
		for i := 0; i < 4 && i < len(reqs); i++ {
			engineRead(warm, reqs[i].tpl, adhocQuery(e, pstmt, reqs[i]), reqs[i].ref, nil, nil, -1)
		}
	}

	order := newRNG(p.seed, "adhoc-plan-order")
	var req int64
	loop := func(rec *recorder, tr *tracer, layers *execLayers) func(int, int) {
		return func(int, int) {
			rq := pool.draw(order)
			req++
			engineRead(rec, rq.tpl, adhocQuery(e, pstmt, rq), rq.ref, tr, layers, req)
		}
	}

	out := &outcome{setup: setup}
	if !p.trace {
		rec := newRecorder()
		ph := runPhase(e, 1, p.seconds, rec, loop(rec, nil, nil))
		if err := finishSetups(); err != nil {
			return nil, err
		}
		out.e2e = ph.endToEnd(setup.med, setup.heapMB)
		out.extras = ph.extras()
		out.notes = []string{fmt.Sprintf("sf=%g clients=1 loop=closed in-process", sf), sampleNote(rec), kindShares(rec)}
		out.totals = tally(warm, rec)
		return out, nil
	}

	tr := newTracer()
	stages, err := profileTemplates(e, pool.templateSamples(4), 3, tr)
	if err != nil {
		return nil, err
	}
	urec, trec := newRecorder(), newRecorder()
	layers := &execLayers{}
	untraced, traced := runInterleaved(e, 1, p.seconds, urec, loop(urec, nil, nil), trec, loop(trec, tr, layers))
	if err := finishSetups(); err != nil {
		return nil, err
	}
	out.layers = append(stages.metrics(), traced.planCacheMetrics()...)
	out.layers = append(out.layers, layers.metrics()...)
	out.layers = append(out.layers, setupMetrics(setup.med)...)
	out.layers = append(out.layers, traced.goMetrics()...)
	out.layers = append(out.layers, overhead(untraced, traced)...)
	out.notes = []string{fmt.Sprintf("sf=%g clients=1 loop=closed in-process traced", sf), sampleNote(trec),
		overheadNote(untraced, traced), kindShares(trec), layers.split()}
	out.totals = tally(warm, urec, trec)
	out.selfMs, err = tr.write(tracePath("adhoc-plan", p.seed), "adhoc-plan", p.seed, out.layers)
	return out, err
}

// adhocQuery is the in-process call for one request of the ad-hoc mix.
func adhocQuery(e *gignite.Engine, pstmt *gignite.Stmt, rq adhocReq) func() (*gignite.Result, error) {
	if rq.tpl == "prepared" {
		return func() (*gignite.Result, error) { return pstmt.Query(gignite.NewInt(rq.arg)) }
	}
	return sqlQuery(e, rq.text)
}
