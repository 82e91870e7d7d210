// Command perfbench is gignite's wall-clock benchmark. It runs one
// closed-loop workload against the engine configuration cmd/gignited
// serves by default, checks every answer against the reference
// interpreter, and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run alternates one-second untraced and traced slices, and the metrics
// are the per-layer ones from the traced slices plus the tracing overhead
// (traced minus untraced); the benchmark's spans are written to
// .bench_build/perfbench-trace/.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tpch-analytic --seed 1 --seconds 30 --trace 0
//
// A wrong answer makes the command exit 1 after printing its result.
// Operations that fail with an error are counted in "failed" and the run
// still exits 0; the summary lines name each error kind.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// params are one run's settings.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// scaleOverride, when positive, replaces every workload's scale factor;
// only the smoke test sets it, to run each workload at a tiny scale.
var scaleOverride float64

// scale returns a workload's scale factor.
func scale(def float64) float64 {
	if scaleOverride > 0 {
		return scaleOverride
	}
	return def
}

// outcome is everything a workload run reports.
type outcome struct {
	e2e    []metric // end-to-end metrics of the untraced phase
	layers []metric // per-layer metrics of the traced phase
	extras []metric // numbers only this workload has, printed in the summary
	notes  []string // sample counts and other context for the summary
	setup  *setupStats
	totals *recorder
	selfMs map[string]float64
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(p params) (*outcome, error)
}

var workloads = []workload{
	{"tpch-analytic", runTPCHAnalytic},
	{"adhoc-plan", runAdhocPlan},
	{"adhoc-serve", runAdhocServe},
	{"ingest-mixed", runIngestMixed},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tpch-analytic, adhoc-plan, adhoc-serve or ingest-mixed")
	seed := fs.Int64("seed", 1, "seed for the generated data and the request sequence")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (tpch-analytic, adhoc-plan, adhoc-serve, ingest-mixed), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	out, err := w.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	metrics := out.e2e
	if p.trace {
		metrics = out.layers
		path := tracePath(w.name, *seed)
		fmt.Fprintf(stdout, "# trace written to %s\n", path)
	}
	printSummary(stdout, w.name, out)
	rec := out.totals
	res := result{Correct: rec.wrong == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		res.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if rec.wrong > 0 {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func printSummary(w io.Writer, name string, out *outcome) {
	fmt.Fprintf(w, "# workload %s\n", name)
	for _, n := range append(out.notes, out.setup.note()) {
		fmt.Fprintf(w, "# %s\n", n)
	}
	section := func(title string, ms []metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "%-28s %16.6g %-6s (%s)\n", m.Name, m.Value, m.Unit, title)
		}
	}
	section("end-to-end", out.e2e)
	section("this workload only, not in the JSON line", out.extras)
	section("per-layer", out.layers)
	for _, k := range sortedKeys(out.selfMs) {
		fmt.Fprintf(w, "self_ms %-20s %16.6g ms     (trace)\n", k, out.selfMs[k])
	}
	rec := out.totals
	fmt.Fprintf(w, "# attempted=%d failed=%d wrong=%d\n", rec.attempted, rec.failed, rec.wrong)
	for _, k := range sortedKeys(rec.errs) {
		fmt.Fprintf(w, "# error x%d: %s\n", rec.errs[k], k)
	}
	for _, m := range rec.mismatch {
		fmt.Fprintf(w, "# WRONG ANSWER: %s\n", m)
	}
}

// tally merges phase recorders into the run's operation totals.
func tally(recs ...*recorder) *recorder {
	t := newRecorder()
	for _, r := range recs {
		t.attempted += r.attempted
		t.failed += r.failed
		t.wrong += r.wrong
		for k, v := range r.errs {
			t.errs[k] += v
		}
		t.mismatch = append(t.mismatch, r.mismatch...)
	}
	return t
}

// sampleNote states the read sample count and how many samples lie beyond
// the reported p95, which needs at least minBeyond.
func sampleNote(rec *recorder) string {
	n := rec.reads()
	note := fmt.Sprintf("reads=%d samples beyond p95=%d (highest supported percentile p%g)",
		n, beyond(n, 0.95), 100*highestSupported(n))
	if beyond(n, 0.95) < minBeyond {
		note += " WARNING: p95 rests on fewer than 10 samples"
	}
	for _, tpl := range sortedKeys(rec.lat) {
		note += fmt.Sprintf("\n# template %-10s n=%-5d median=%.3f ms", tpl, len(rec.lat[tpl]), median(rec.lat[tpl]))
	}
	return note
}
