package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gignite"
	"gignite/internal/binder"
	"gignite/internal/sql"
	"gignite/internal/tpch"
)

// ingest-mixed: one writer sends multi-row INSERTs into orders and
// lineitem while one reader runs index-ordered range reads, TPC-H queries
// and a read-your-writes count on the same tables — the storage layer's
// write path beside its read path.
//
// It is not a workload of BENCHMARK.json: while the writer runs, a share
// of the index-served reads fails with "index ... not built" (Store.Load
// drops a table's indexes before BuildIndexes rebuilds them under a
// separate lock acquisition), and that share changes from run to run. The
// failures are counted, not retried.
//
// An INSERT costs about the same whatever its row count, and the writer
// sends a couple of thousand of them in a 30 s run. Two orders per batch
// keep a run's growth of orders and lineitem to about their starting
// size, so the reads' cost depends little on how fast the writer ran.
const (
	ingestSF        = 0.0015
	ordersPerInsert = 2
	linesPerOrder   = 4
	// ingestKeyBase puts written order keys far above generated ones, so
	// no read but the read-your-writes count ever sees a written row.
	ingestKeyBase  = 1_000_000_000
	ingestRanges   = 32
	rangesPerRound = 16
	rywPerRound    = 10
)

// ingestQueries are the TPC-H queries whose predicates exclude every 2001
// date, so rows the writer adds (all dated 2001) never change their
// answers.
var ingestQueries = []int{1, 3, 4, 6, 12, 14}

// rywSQL counts the written orders: every written row and no generated
// one is dated 2001.
const rywSQL = `SELECT COUNT(*) AS n FROM orders WHERE o_orderdate >= DATE '2001-01-01'`

// insertBatch renders batch b of the writer's seeded sequence: one INSERT
// of ordersPerInsert orders, one of their lines.
func insertBatch(r *rng, b, parts, supps int) (orders, lines string) {
	var ob, lb strings.Builder
	ob.WriteString("INSERT INTO orders VALUES ")
	lb.WriteString("INSERT INTO lineitem VALUES ")
	for j := 0; j < ordersPerInsert; j++ {
		key := ingestKeyBase + b*ordersPerInsert + j
		d := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, r.intn(300))
		date := func(plus int) string { return d.AddDate(0, 0, plus).Format("2006-01-02") }
		if j > 0 {
			ob.WriteString(", ")
		}
		fmt.Fprintf(&ob, "(%d, %d, 'O', %d.%02d, DATE '%s', '%s', 'Clerk#%09d', 0, 'ingested order')",
			key, r.between(1, 1000), r.between(1000, 400000), r.intn(100), date(0), r.pick(priorities), r.between(1, 1000))
		for ln := 1; ln <= linesPerOrder; ln++ {
			if j > 0 || ln > 1 {
				lb.WriteString(", ")
			}
			fmt.Fprintf(&lb, "(%d, %d, %d, %d, %d.00, %d.%02d, 0.0%d, 0.0%d, 'N', 'O', DATE '%s', DATE '%s', DATE '%s', 'NONE', '%s', 'ingested line')",
				key, r.between(1, parts), r.between(1, supps), ln, r.between(1, 50),
				r.between(1000, 90000), r.intn(100), r.intn(10), r.intn(9),
				date(ln), date(30+ln), date(40+ln), r.pick(shipModes))
		}
	}
	return ob.String(), lb.String()
}

// writeLayers accumulates the storage write path: INSERT latency minus
// the parse and bind time of the same text, timed separately.
type writeLayers struct {
	mu      sync.Mutex
	writeMs []float64
}

func runIngestMixed(p params) (*outcome, error) {
	sf := scale(ingestSF)
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

	counts := tpch.NewGen(sf).Counts()
	nOrders, parts, supps := int(counts["orders"]), int(counts["part"]), int(counts["supplier"])

	// Reads and their reference answers, all computed before the writer
	// starts.
	type readReq struct {
		tpl, text string
		ref       []string
	}
	var tpchReads, rangeReads []readReq
	for _, id := range ingestQueries {
		q := tpch.QueryByID(id)
		tpchReads = append(tpchReads, readReq{tpl: fmt.Sprintf("Q%d", id), text: q.SQL})
	}
	rr := newRNG(p.seed, "ingest-ranges")
	for i := 0; i < ingestRanges; i++ {
		lo := rr.between(1, nOrders-100)
		rangeReads = append(rangeReads, readReq{tpl: "range", text: rangeSQL(lo, lo+99)})
	}
	for _, set := range [][]readReq{tpchReads, rangeReads} {
		for i := range set {
			rows, err := e.ReferenceQuery(set[i].text)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", set[i].tpl, err)
			}
			set[i].ref = canonEngine(rows)
		}
	}
	// The range read must exercise the index path the writer rebuilds.
	if plan, err := e.Explain(rangeReads[0].text); err != nil || !strings.Contains(plan, "IndexScan") {
		return nil, fmt.Errorf("range read is not served by an index scan (err=%v):\n%s", err, plan)
	}
	warm := newRecorder()
	for _, set := range [][]readReq{tpchReads, rangeReads[:4]} {
		for _, rq := range set {
			engineRead(warm, rq.tpl, sqlQuery(e, rq.text), rq.ref, nil, nil, -1)
		}
	}

	var sent, acked atomic.Int64 // written orders: sent to the engine, acknowledged
	writerRNG := newRNG(p.seed, "ingest-writer")
	readerRNG := newRNG(p.seed, "ingest-reader")
	var batch int
	var pending []string
	var reqID atomic.Int64

	write := func(rec *recorder, tr *tracer, wlay *writeLayers) {
		if len(pending) == 0 {
			o, l := insertBatch(writerRNG, batch, parts, supps)
			batch++
			pending = []string{o, l}
		}
		text := pending[0]
		pending = pending[1:]
		isOrders := strings.HasPrefix(text, "INSERT INTO orders")
		if isOrders {
			sent.Add(ordersPerInsert)
		}
		id := reqID.Add(1)
		root := tr.begin("client.write", -1, id)
		t := time.Now()
		_, err := e.Exec(text)
		d := time.Since(t)
		tr.end(root)
		if err != nil {
			rec.fail("insert", err)
			return
		}
		if isOrders {
			acked.Add(ordersPerInsert)
		}
		rec.write(d)
		if wlay != nil {
			pb := tr.begin("write.parse_bind", -1, id)
			tp := time.Now()
			stmt, perr := sql.Parse(text)
			if ins, ok := stmt.(*sql.InsertStmt); perr == nil && ok {
				if tbl, terr := e.Catalog().Table(ins.Table); terr == nil {
					_, _ = binder.BindInsertRows(tbl, ins)
				}
			}
			front := time.Since(tp)
			tr.end(pb)
			wlay.mu.Lock()
			wlay.writeMs = append(wlay.writeMs, float64(d-front)/1e6)
			wlay.mu.Unlock()
		}
	}
	// The reader works in rounds of a fixed composition — every TPC-H
	// query once, rangesPerRound range reads, rywPerRound read-your-writes
	// counts — in a seeded order, so the mix a run finishes does not vary
	// from seed to seed.
	var round []int // -1: ryw, -2: range, else index into tpchReads
	read := func(rec *recorder, tr *tracer, layers *execLayers) {
		if len(round) == 0 {
			for i := range tpchReads {
				round = append(round, i)
			}
			for i := 0; i < rangesPerRound; i++ {
				round = append(round, -2)
			}
			for i := 0; i < rywPerRound; i++ {
				round = append(round, -1)
			}
			for i := len(round) - 1; i > 0; i-- {
				j := readerRNG.intn(i + 1)
				round[i], round[j] = round[j], round[i]
			}
		}
		k := round[0]
		round = round[1:]
		id := reqID.Add(1)
		switch {
		case k >= 0:
			rq := tpchReads[k]
			engineRead(rec, rq.tpl, sqlQuery(e, rq.text), rq.ref, tr, layers, id)
		case k == -2:
			rq := rangeReads[readerRNG.intn(len(rangeReads))]
			engineRead(rec, rq.tpl, sqlQuery(e, rq.text), rq.ref, tr, layers, id)
		default:
			root := tr.begin("client.request", -1, id)
			low := acked.Load()
			call := tr.begin("engine.query", root, id)
			t := time.Now()
			res, err := e.Query(rywSQL)
			d := time.Since(t)
			tr.end(call)
			high := sent.Load()
			tr.end(root)
			if err != nil {
				rec.fail("ryw", err)
				return
			}
			var n int64 = -1
			if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
				n = res.Rows[0][0].I
			}
			ok := n >= low && n <= high
			rec.read("ryw", d, ok, fmt.Sprintf("saw %d written orders; %d were acknowledged before the read and %d sent by its end", n, low, high))
			if ok {
				rec.modeledTime("ryw", res.Modeled)
			}
			if layers != nil {
				layers.add(res, d, tr, call, id)
			}
		}
	}
	loop := func(rec *recorder, tr *tracer, layers *execLayers, wlay *writeLayers) func(int, int) {
		return func(c, _ int) {
			if c == 0 {
				write(rec, tr, wlay)
			} else {
				read(rec, tr, layers)
			}
		}
	}

	out := &outcome{setup: setup}
	if !p.trace {
		rec := newRecorder()
		ph := runPhase(e, 2, p.seconds, rec, loop(rec, nil, nil, nil))
		if err := finishSetups(); err != nil {
			return nil, err
		}
		out.e2e = ph.endToEnd(setup.med, setup.heapMB)
		out.extras = ph.extras()
		out.notes = []string{fmt.Sprintf("sf=%g clients=1 writer + 1 reader loop=closed", sf), sampleNote(rec),
			fmt.Sprintf("writes=%d (%d orders written)", len(rec.writes), acked.Load())}
		out.totals = tally(warm, rec)
		return out, nil
	}

	tr := newTracer()
	texts := []string{rangeReads[0].text, rywSQL}
	for _, rq := range tpchReads {
		texts = append(texts, rq.text)
	}
	stages, err := profileTemplates(e, texts, 3, tr)
	if err != nil {
		return nil, err
	}
	urec, trec := newRecorder(), newRecorder()
	layers := &execLayers{}
	wlay := &writeLayers{}
	untraced, traced := runInterleaved(e, 2, p.seconds, urec, loop(urec, nil, nil, nil), trec, loop(trec, tr, layers, wlay))
	if err := finishSetups(); err != nil {
		return nil, err
	}
	out.layers = append(stages.metrics(), traced.planCacheMetrics()...)
	out.layers = append(out.layers, layers.metrics()...)
	out.layers = append(out.layers, setupMetrics(setup.med)...)
	out.layers = append(out.layers, traced.goMetrics()...)
	out.layers = append(out.layers, overhead(untraced, traced)...)
	out.extras = []metric{{"storage.write_ms", "ms", median(wlay.writeMs)}}
	out.notes = []string{fmt.Sprintf("sf=%g clients=1 writer + 1 reader loop=closed traced", sf), sampleNote(trec), overheadNote(untraced, traced), "reader " + layers.split()}
	out.totals = tally(warm, urec, trec)
	out.selfMs, err = tr.write(tracePath("ingest-mixed", p.seed), "ingest-mixed", p.seed, append(out.layers, out.extras...))
	return out, err
}
