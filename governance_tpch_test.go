package gignite_test

import (
	"errors"
	"testing"
	"time"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
)

// TestAdmissionShedsTypedUnderRace is the shedding contract of DESIGN.md
// §14 under real contention: 8 clients race TPC-H Q1/Q3 into an engine
// that admits 2 queries at a time over a memory pool sized for about two
// queries (twice the larger query's peak plus 1 MiB), with a 50 ms
// admission timeout. Every failure must be ErrOverloaded, at least one
// query must be admitted, and every admitted query must return the rows
// of an ungoverned engine.
func TestAdmissionShedsTypedUnderRace(t *testing.T) {
	const sf, clients = 0.005, 8
	ids := []int{1, 3}
	open := func(mut func(*gignite.Config)) *gignite.Engine {
		cfg := harness.ConfigFor(harness.ICPlus, 4, sf)
		mut(&cfg)
		e := gignite.New(cfg)
		if err := tpch.Setup(e, sf); err != nil {
			t.Fatal(err)
		}
		return e
	}
	// The huge per-query budget only turns memory accounting on, so the
	// reference run reports the peaks that size the pool.
	ref := open(func(cfg *gignite.Config) { cfg.QueryMemLimitBytes = 1 << 40 })
	want := make(map[int]string)
	var maxPeak int64
	for _, id := range ids {
		res, err := ref.Query(tpch.QueryByID(id).SQL)
		if err != nil {
			t.Fatalf("reference Q%d: %v", id, err)
		}
		want[id] = rowsChecksum(res.Rows)
		if res.Stats.MemPeakBytes > maxPeak {
			maxPeak = res.Stats.MemPeakBytes
		}
	}
	gov := open(func(cfg *gignite.Config) {
		cfg.MaxConcurrentQueries = 2
		cfg.MemoryBudgetBytes = 2*maxPeak + 1<<20
		cfg.AdmissionTimeout = 50 * time.Millisecond
	})

	type outcome struct {
		id   int
		rows string
		err  error
	}
	out := make(chan outcome, clients)
	for i := 0; i < clients; i++ {
		go func(id int) {
			res, err := gov.Query(tpch.QueryByID(id).SQL)
			if err != nil {
				out <- outcome{id: id, err: err}
				return
			}
			out <- outcome{id: id, rows: rowsChecksum(res.Rows)}
		}(ids[i%len(ids)])
	}
	admitted, shed := 0, 0
	for i := 0; i < clients; i++ {
		o := <-out
		switch {
		case o.err == nil:
			admitted++
			if o.rows != want[o.id] {
				t.Errorf("admitted Q%d rows differ from the ungoverned run", o.id)
			}
		case errors.Is(o.err, gignite.ErrOverloaded):
			shed++
		default:
			t.Errorf("Q%d failed outside the shed taxonomy: %v", o.id, o.err)
		}
	}
	t.Logf("pool %d bytes (max query peak %d): %d admitted, %d shed", 2*maxPeak+1<<20, maxPeak, admitted, shed)
	if admitted == 0 {
		t.Error("no query was admitted")
	}
}
