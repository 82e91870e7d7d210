// Command benchrunner regenerates the paper's evaluation artifacts: one
// experiment per table and figure of §6, printed as aligned text tables.
//
// Usage:
//
//	benchrunner -exp fig7|fig8|fig9|fig10|fig11|table3|failures|ablate|scaling|benchgate|serveaql|all
//	            [-sf 0.005,0.01] [-sites 4,8] [-par 0]
//	            [-backups 0] [-faults SPEC] [-timeout 0] [-filters] [-plancache 0]
//	            [-adaptive] [-misestimate 0] [-clients 8] [-metrics FILE]
//	            [-baseline BENCH_gate.json] [-update-baseline]
//
// The benchgate experiment is the CI benchmark-regression gate: it runs
// the baseline file's query set and compares the deterministic modeled
// times and shipped bytes against the committed BENCH_gate.json, failing
// on any regression beyond the file's tolerance. -update-baseline rewrites
// the baseline from the current measurements (commit the diff), and
// -metrics writes the measured values as JSON.
//
// The serveaql experiment reports the average query latency of 2 and
// -clients concurrent database/sql clients over TCP.
//
// The subsystems' own acceptance checks (observability, runtime join
// filters, resource governance, plan cache, adaptive execution, serving
// layer) are go tests, not experiments; DESIGN.md §12–§17 names them.
//
// -filters enables runtime join-filter pushdown and -plancache a plan
// cache of the given capacity for the table/figure experiments (the
// modeled times then include filter build cost and the shipped-volume
// savings).
//
// Response times are deterministic modeled times from the simnet cost
// clock (see DESIGN.md), so runs are reproducible across hosts — and
// independent of -par, which only sets how many host goroutines execute
// fragment instances (wall-clock speed of the run itself).
//
// Fault-tolerance experiments (DESIGN.md §fault model): -backups keeps N
// backup replicas per partition, -faults injects a deterministic fault
// plan (e.g. "seed=7;crash=2@4;sendfail=0.05"), and -timeout bounds each
// query's wall-clock time. With backups ≥ 1 the modeled times include
// retry recovery cost; with backups = 0 a crashed site turns into clean
// query errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gignite"
	"gignite/internal/engineflags"
	"gignite/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig7, fig8, fig9, fig10, fig11, table3, failures, ablate, scaling, benchgate, serveaql, all")
	ef := engineflags.Bind(flag.CommandLine, engineflags.Defaults{System: "ic+m"})
	sfs := flag.String("sf", "0.005,0.01", "comma-separated scale factors")
	sites := flag.String("sites", "4,8", "comma-separated site counts")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock deadline (0 = none)")
	metricsOut := flag.String("metrics", "", "benchgate experiment: write the measured values as JSON to this file")
	clients := flag.Int("clients", 8, "serveaql experiment: concurrent client count")
	baseline := flag.String("baseline", "BENCH_gate.json", "benchgate experiment: committed baseline file")
	updateBaseline := flag.Bool("update-baseline", false, "benchgate experiment: rewrite the baseline from current measurements")
	flag.Parse()

	plan, err := gignite.ParseFaults(ef.Faults)
	if err != nil {
		fatalf("bad -faults spec: %v", err)
	}

	opts := harness.Options{Env: harness.NewEnv()}
	opts.Env.Parallelism = ef.Parallelism
	opts.Env.Backups = ef.Backups
	opts.Env.Faults = plan
	opts.Env.Timeout = *timeout
	opts.Env.Filters = ef.Filters
	opts.Env.PlanCache = ef.PlanCache
	opts.Env.Adaptive = ef.Adaptive
	opts.Env.Misestimate = ef.Misestimate
	for _, s := range strings.Split(*sfs, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatalf("bad -sf value %q: %v", s, err)
		}
		opts.SFs = append(opts.SFs, v)
	}
	for _, s := range strings.Split(*sites, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatalf("bad -sites value %q: %v", s, err)
		}
		opts.Sites = append(opts.Sites, v)
	}

	if *exp == "benchgate" {
		runBenchGate(opts, *baseline, *metricsOut, *updateBaseline)
		return
	}
	if *exp == "serveaql" {
		runServeAQL(opts, *clients)
		return
	}

	type experiment struct {
		name string
		run  func(harness.Options) (*harness.Report, error)
	}
	all := []experiment{
		{"fig7", harness.Fig7},
		{"fig8", harness.Fig8},
		{"fig9", harness.Fig9},
		{"fig10", harness.Fig10},
		{"table3", harness.Table3},
		{"fig11", harness.Fig11},
		{"failures", harness.FailureMatrix},
		{"ablate", harness.Ablation},
		{"scaling", harness.Scaling},
	}
	ran := false
	for _, e := range all {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		rep, err := e.run(opts)
		if err != nil {
			fatalf("%s: %v", e.name, err)
		}
		fmt.Println(rep.Render())
	}
	if !ran {
		fatalf("unknown experiment %q", *exp)
	}
}

// runServeAQL prints the harness's multi-client-over-TCP AQL report.
func runServeAQL(opts harness.Options, clients int) {
	rep, err := harness.ServeAQL(harness.ServeAQLOptions{
		Clients: []int{2, clients},
		SF:      opts.SFs[0],
		Sites:   opts.Sites[0],
		Env:     opts.Env,
	})
	if rep != nil {
		fmt.Println(rep.Render())
	}
	if err != nil {
		fatalf("serveaql: %v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchrunner: "+format+"\n", args...)
	os.Exit(1)
}
