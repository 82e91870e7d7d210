package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"gignite"
)

// execLayers accumulates, over in-process queries, what the engine exports
// per query in Result.Stats and Result.Obs: the cluster scheduler's
// fragment-instance spans, the executor's operator counts, the storage
// scans and the simnet shipment.
type execLayers struct {
	mu        sync.Mutex
	queries   int
	instances float64
	busyNs    float64 // sum of span durations
	unionNs   float64 // wall time covered by at least one span
	gapNs     float64 // client wall minus plan acquisition minus span union
	utilSum   float64
	retries   float64
	work      float64
	rowsOut   float64
	buildRows float64
	scanned   float64
	bytes     float64
	planNs    float64
}

// add folds one successful query, timed by the client at wall. When tr is
// on, the query's fragment-instance spans are recorded under parent.
func (a *execLayers) add(res *gignite.Result, wall time.Duration, tr *tracer, parent int, req int64) {
	var busy int64
	var iv [][2]int64
	var rowsOut, build, scanned float64
	if q := res.Obs; q != nil {
		for _, s := range q.Spans {
			busy += s.EndNanos - s.StartNanos
			iv = append(iv, [2]int64{s.StartNanos, s.EndNanos})
			tr.add("cluster.instance", q.Began.Add(time.Duration(s.StartNanos)), q.Began.Add(time.Duration(s.EndNanos)), parent, req)
		}
		for _, f := range q.Fragments {
			if f == nil {
				continue
			}
			for _, op := range f.Ops {
				rowsOut += float64(op.RowsOut)
				build += float64(op.BuildRows)
				if strings.HasPrefix(op.Op, "TableScan") || strings.HasPrefix(op.Op, "IndexScan") {
					scanned += float64(op.RowsIn)
				}
			}
		}
	}
	union := intervalUnion(iv)
	st := res.Stats
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	a.instances += float64(st.Instances)
	a.busyNs += float64(busy)
	a.unionNs += float64(union)
	a.gapNs += float64(wall.Nanoseconds() - st.PlanNanos - union)
	if union > 0 && st.Workers > 0 {
		a.utilSum += float64(busy) / (float64(union) * float64(st.Workers))
	}
	a.retries += float64(st.Retries)
	a.work += st.Work
	a.rowsOut += rowsOut
	a.buildRows += build
	a.scanned += scanned
	a.bytes += st.BytesShipped
	a.planNs += float64(st.PlanNanos)
}

// metrics reports per-query means (retries as a total).
func (a *execLayers) metrics() []metric {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := float64(a.queries)
	if n == 0 {
		n = 1
	}
	nsPerRow := 0.0
	if a.rowsOut > 0 {
		nsPerRow = a.busyNs / a.rowsOut
	}
	return []metric{
		{"plancache.acquire_us", "us", a.planNs / n / 1e3},
		{"cluster.instances", "count", a.instances / n},
		{"cluster.busy_ms", "ms", a.busyNs / n / 1e6},
		{"cluster.span_union_ms", "ms", a.unionNs / n / 1e6},
		{"cluster.gap_ms", "ms", a.gapNs / n / 1e6},
		{"cluster.worker_util", "ratio", a.utilSum / n},
		{"cluster.retries", "count", a.retries},
		{"exec.work_units", "count", a.work / n},
		{"exec.rows_processed", "count", a.rowsOut / n},
		{"exec.ns_per_row", "ns", nsPerRow},
		{"exec.hash_build_rows", "count", a.buildRows / n},
		{"storage.rows_scanned", "count", a.scanned / n},
		{"simnet.bytes_shipped", "bytes", a.bytes / n},
	}
}

// planMs returns the mean plan acquisition time per query, in ms.
func (a *execLayers) planMs() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.planNs / math.Max(1, float64(a.queries)) / 1e6
}

// split states where the mean in-process read spends its wall time: plan
// acquisition (parse to fragments, or a cache hit), execution (the union
// of the fragment-instance spans) and the rest (result assembly,
// scheduling gaps). The three parts add up to the wall time.
func (a *execLayers) split() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := math.Max(1, float64(a.queries))
	plan, exec, rest := a.planNs/n/1e6, a.unionNs/n/1e6, a.gapNs/n/1e6
	wall := plan + exec + rest
	return fmt.Sprintf("work split per read: wall %.3f ms = plan acquisition %.3f ms (%.0f%%) + execution %.3f ms (%.0f%%) + rest %.3f ms (%.0f%%)",
		wall, plan, 100*ratio(plan, wall), exec, 100*ratio(exec, wall), rest, 100*ratio(rest, wall))
}
