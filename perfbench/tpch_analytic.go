package main

import (
	"fmt"
	"time"

	"gignite"
	"gignite/internal/tpch"
)

// tpch-analytic: one in-process client repeats every TPC-H query IC+M runs
// with the plan cache warm, so execution, scheduling and scans do nearly
// all the work and planning almost none.
const tpchAnalyticSF = 0.01

func runTPCHAnalytic(p params) (*outcome, error) {
	sf := scale(tpchAnalyticSF)
	setupOne := func() (*gignite.Engine, setupTimes, error) { return setupTPCH(sf, p.seed) }
	closeEngine := func(e *gignite.Engine) { _ = e.Close() }
	setup := &setupStats{}
	e, err := setupSeries(setup, setupOne, closeEngine, true)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	// finishSetups closes the measured engine and times the second series
	// of set-ups.
	finishSetups := func() error {
		_ = e.Close()
		_, err := setupSeries(setup, setupOne, closeEngine, false)
		return err
	}

	var qs []tpch.Query
	for _, q := range tpch.Queries() {
		if !q.RequiresViews {
			qs = append(qs, q)
		}
	}
	refs, err := referenceAnswers(e, qs)
	if err != nil {
		return nil, err
	}
	// Warm-up: every query once, answers checked, plan cache filled.
	warm := newRecorder()
	for _, q := range qs {
		engineRead(warm, tpchName(q), sqlQuery(e, q.SQL), refs[q.ID], nil, nil, -1)
	}

	// The request sequence is rounds of every query in a seeded order, and
	// a phase ends only between rounds, so every query has the same number
	// of samples. Otherwise the pooled percentiles shift with whichever
	// queries the last, partial round happened to run.
	order := newRNG(p.seed, "tpch-analytic-order")
	seq := append([]tpch.Query(nil), qs...)
	var req int64
	loop := func(rec *recorder, tr *tracer, layers *execLayers) func(int, int) {
		return func(int, int) {
			for i := len(seq) - 1; i > 0; i-- {
				j := order.intn(i + 1)
				seq[i], seq[j] = seq[j], seq[i]
			}
			for _, q := range seq {
				req++
				engineRead(rec, tpchName(q), sqlQuery(e, q.SQL), refs[q.ID], tr, layers, req)
			}
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
		out.notes = []string{fmt.Sprintf("sf=%g clients=1 loop=closed", sf), sampleNote(rec)}
		out.totals = tally(warm, rec)
		return out, nil
	}

	tr := newTracer()
	texts := make([]string, len(qs))
	for i, q := range qs {
		texts[i] = q.SQL
	}
	stages, err := profileTemplates(e, texts, 3, tr)
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
	out.notes = []string{fmt.Sprintf("sf=%g clients=1 loop=closed traced", sf), sampleNote(trec), overheadNote(untraced, traced), layers.split()}
	out.totals = tally(warm, urec, trec)
	out.selfMs, err = tr.write(tracePath("tpch-analytic", p.seed), "tpch-analytic", p.seed, out.layers)
	return out, err
}

func tpchName(q tpch.Query) string { return fmt.Sprintf("Q%d", q.ID) }

// referenceAnswers runs each query through the reference interpreter.
func referenceAnswers(e *gignite.Engine, qs []tpch.Query) (map[int][]string, error) {
	refs := make(map[int][]string, len(qs))
	for _, q := range qs {
		rows, err := e.ReferenceQuery(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("reference Q%d: %w", q.ID, err)
		}
		refs[q.ID] = canonEngine(rows)
	}
	return refs, nil
}

// sqlQuery is the in-process call for one SELECT text.
func sqlQuery(e *gignite.Engine, text string) func() (*gignite.Result, error) {
	return func() (*gignite.Result, error) { return e.Query(text) }
}

// engineRead runs one in-process SELECT, records its latency and checks
// its answer. Traced, it records the request, the engine call (with the
// engine's fragment-instance spans under it) and the check as spans, and
// folds the result's telemetry into layers.
func engineRead(rec *recorder, tpl string, query func() (*gignite.Result, error), want []string, tr *tracer, layers *execLayers, req int64) {
	root := tr.begin("client.request", -1, req)
	defer tr.end(root)
	call := tr.begin("engine.query", root, req)
	t := time.Now()
	res, err := query()
	d := time.Since(t)
	tr.end(call)
	if err != nil {
		rec.fail(tpl, err)
		return
	}
	chk := tr.begin("check", root, req)
	ok, detail := sameRows(canonEngine(res.Rows), want)
	tr.end(chk)
	rec.read(tpl, d, ok, detail)
	if ok {
		rec.modeledTime(tpl, res.Modeled)
	}
	if layers != nil {
		layers.add(res, d, tr, call, req)
	}
}
