package gignite_test

import (
	"fmt"
	"testing"
	"time"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
)

// TestPlanCacheHotRunsSkipPlanning is the plan cache's efficacy bound
// (DESIGN.md §15) on TPC-H Q1/Q3/Q10: after one cold run, each of 20 hot
// runs reuses the cached plan, the mean hot plan-acquisition time is at
// most 10% of the cold planning time, and every run returns the rows of
// a cache-off engine byte for byte.
func TestPlanCacheHotRunsSkipPlanning(t *testing.T) {
	const sf, hotRuns = 0.01, 20
	open := func(cache int) *gignite.Engine {
		cfg := harness.ConfigFor(harness.ICPlus, 4, sf)
		cfg.PlanCacheSize = cache
		e := gignite.New(cfg)
		if err := tpch.Setup(e, sf); err != nil {
			t.Fatal(err)
		}
		return e
	}
	off, on := open(0), open(64)
	for _, id := range []int{1, 3, 10} {
		t.Run(fmt.Sprintf("Q%d", id), func(t *testing.T) {
			sql := tpch.QueryByID(id).SQL
			base, err := off.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			want := rowsChecksum(base.Rows)
			cold, err := on.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Stats.PlanningSkipped {
				t.Error("cold run claims planning was skipped")
			}
			if rowsChecksum(cold.Rows) != want {
				t.Error("cold rows differ from the cache-off run")
			}
			var hotTotal int64
			for i := 0; i < hotRuns; i++ {
				hot, err := on.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				if !hot.Stats.PlanningSkipped {
					t.Errorf("hot run %d did not skip planning", i)
				}
				if rowsChecksum(hot.Rows) != want {
					t.Errorf("hot run %d rows differ from the cache-off run", i)
				}
				hotTotal += hot.Stats.PlanNanos
			}
			meanHot := hotTotal / hotRuns
			t.Logf("cold plan %v, mean hot plan %v", time.Duration(cold.Stats.PlanNanos), time.Duration(meanHot))
			if meanHot*10 > cold.Stats.PlanNanos {
				t.Errorf("mean hot plan time %v is over 10%% of cold %v", time.Duration(meanHot), time.Duration(cold.Stats.PlanNanos))
			}
		})
	}
}
