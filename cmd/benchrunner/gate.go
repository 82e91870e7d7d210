package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"gignite/internal/harness"
	"gignite/internal/tpch"
)

// gateBaseline is the committed BENCH_gate.json document the regression
// gate compares against. The measured signals — modeled time and shipped
// bytes — come from the simnet cost clock and are deterministic across
// hosts and -par settings, so the tolerance guards real plan or executor
// regressions, not machine noise.
type gateBaseline struct {
	Schema      string `json:"schema"`
	Description string `json:"description"`
	Config      struct {
		System  string  `json:"system"`
		SF      float64 `json:"sf"`
		Sites   int     `json:"sites"`
		Queries []int   `json:"queries"`
	} `json:"config"`
	TolerancePct float64              `json:"tolerance_pct"`
	Queries      map[string]gateEntry `json:"queries"`
}

type gateEntry struct {
	ModeledMs    float64 `json:"modeled_ms"`
	BytesShipped float64 `json:"bytes_shipped"`
}

// gateSchema versions the baseline file format.
const gateSchema = "gignite.benchgate/v1"

// runBenchGate is the benchmark-regression gate: measure the baseline
// file's query set at its pinned configuration and fail when modeled time
// or shipped bytes regress beyond the baseline's tolerance. Improvements
// beyond the tolerance are reported (refresh the baseline with
// -update-baseline) but do not fail the gate.
func runBenchGate(opts harness.Options, baselinePath, metricsOut string, update bool) {
	failed := false
	failf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "benchrunner: benchgate: "+format+"\n", args...)
		failed = true
	}
	base := &gateBaseline{}
	data, err := os.ReadFile(baselinePath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, base); err != nil {
			fatalf("benchgate: parse %s: %v", baselinePath, err)
		}
		if base.Schema != gateSchema {
			fatalf("benchgate: %s has schema %q, want %q", baselinePath, base.Schema, gateSchema)
		}
	case os.IsNotExist(err) && update:
		// Seeding a fresh baseline: pin the default configuration.
		base.Schema = gateSchema
		base.Description = "Benchmark-regression gate baseline: deterministic modeled times and shipped bytes for the pinned TPC-H query set on the IC+ configuration. Regenerate with `make benchgate-update` after intentional performance changes and commit the diff."
		base.Config.System = "IC+"
		base.Config.SF = 0.05
		base.Config.Sites = 4
		base.Config.Queries = []int{1, 3, 5, 10}
		base.TolerancePct = 10
	default:
		fatalf("benchgate: %v (run with -update-baseline to seed it)", err)
	}
	if base.TolerancePct <= 0 {
		base.TolerancePct = 10
	}

	env := opts.Env
	e, err := env.Engine(harness.TPCH, harness.ICPlus, base.Config.Sites, base.Config.SF)
	if err != nil {
		fatalf("benchgate: %v", err)
	}
	fmt.Printf("benchmark-regression gate: %s sf=%g sites=%d tolerance=±%g%%\n",
		base.Config.System, base.Config.SF, base.Config.Sites, base.TolerancePct)
	fmt.Printf("%-5s %14s %14s %8s %14s %14s %8s\n",
		"query", "modeled_base", "modeled_now", "delta", "bytes_base", "bytes_now", "delta")

	measured := make(map[string]gateEntry, len(base.Config.Queries))
	for _, id := range base.Config.Queries {
		q := tpch.QueryByID(id)
		if q == nil {
			fatalf("benchgate: unknown TPC-H query %d", id)
		}
		res, err := e.Query(q.SQL)
		if err != nil {
			fatalf("benchgate: Q%d: %v", id, err)
		}
		label := fmt.Sprintf("Q%d", id)
		got := gateEntry{
			ModeledMs:    float64(res.Modeled.Microseconds()) / 1000,
			BytesShipped: res.Stats.BytesShipped,
		}
		measured[label] = got
		want, ok := base.Queries[label]
		if !ok {
			if !update {
				failf("%s missing from baseline %s", label, baselinePath)
			}
			fmt.Printf("%-5s %14s %14.2f %8s %14s %14.0f %8s\n", label, "-", got.ModeledMs, "-", "-", got.BytesShipped, "-")
			continue
		}
		dm := pctDelta(got.ModeledMs, want.ModeledMs)
		db := pctDelta(got.BytesShipped, want.BytesShipped)
		fmt.Printf("%-5s %14.2f %14.2f %+7.1f%% %14.0f %14.0f %+7.1f%%\n",
			label, want.ModeledMs, got.ModeledMs, dm, want.BytesShipped, got.BytesShipped, db)
		if update {
			continue
		}
		if dm > base.TolerancePct {
			failf("%s modeled time regressed %.1f%% (%.2fms -> %.2fms, tolerance %g%%)",
				label, dm, want.ModeledMs, got.ModeledMs, base.TolerancePct)
		}
		if db > base.TolerancePct {
			failf("%s shipped bytes regressed %.1f%% (%.0f -> %.0f, tolerance %g%%)",
				label, db, want.BytesShipped, got.BytesShipped, base.TolerancePct)
		}
		if dm < -base.TolerancePct || db < -base.TolerancePct {
			fmt.Fprintf(os.Stderr, "benchrunner: benchgate: note: %s improved beyond tolerance; refresh the baseline with -update-baseline\n", label)
		}
	}

	if update {
		base.Queries = measured
		env := gateEnvironment()
		base.Description = strings.TrimSpace(base.Description)
		out, err := json.MarshalIndent(struct {
			*gateBaseline
			Environment map[string]string `json:"environment"`
		}{base, env}, "", "  ")
		if err != nil {
			fatalf("benchgate: marshal baseline: %v", err)
		}
		if err := os.WriteFile(baselinePath, append(out, '\n'), 0o644); err != nil {
			fatalf("benchgate: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchrunner: wrote baseline to %s\n", baselinePath)
	}
	if metricsOut != "" {
		writeJSON(metricsOut, map[string]interface{}{
			"baseline":      base.Queries,
			"measured":      measured,
			"tolerance_pct": base.TolerancePct,
		})
	}
	if failed {
		os.Exit(1)
	}
}

// pctDelta returns (got-want)/want as a percentage; positive = regression.
func pctDelta(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 100
	}
	return 100 * (got - want) / want
}

func gateEnvironment() map[string]string {
	return map[string]string{
		"note": "modeled times and shipped bytes are simnet cost-clock values: deterministic across hosts, goroutine counts and -par settings",
	}
}

func writeJSON(path string, v interface{}) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchrunner: wrote %s\n", path)
}
