package main

import (
	"fmt"
	"strings"
	"time"

	"gignite"
	"gignite/internal/binder"
	"gignite/internal/cost"
	"gignite/internal/fragment"
	"gignite/internal/hep"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/rules"
	"gignite/internal/sql"
	"gignite/internal/stats"
	"gignite/internal/volcano"
)

// stageTimes is one pass of the planning pipeline, stage by stage.
type stageTimes struct {
	parse, bind, hep, volcano, split time.Duration
	tickets, fragments               int
}

// stagedExplain runs the planning pipeline Engine.Explain runs — parse,
// bind, heuristic rewrite, cost-based optimization, fragmentation — one
// public call at a time, timing each, and renders the plan text the way
// Explain does. Callers compare the text with Engine.Explain so the timed
// stages are known to be the ones the engine runs.
func stagedExplain(e *gignite.Engine, text string, tr *tracer, parent int, req int64) (string, stageTimes, error) {
	cfg := e.Config()
	var st stageTimes
	stage := func(name string, d *time.Duration, f func() error) error {
		id := tr.begin(name, parent, req)
		t := time.Now()
		err := f()
		*d = time.Since(t)
		tr.end(id)
		return err
	}

	var sel *sql.SelectStmt
	if err := stage("sql.parse", &st.parse, func() (err error) {
		sel, err = sql.ParseSelect(text)
		return err
	}); err != nil {
		return "", st, err
	}
	var lp logical.Node
	if err := stage("binder.bind", &st.bind, func() (err error) {
		lp, err = binder.New(e.Catalog()).BindSelect(sel)
		return err
	}); err != nil {
		return "", st, err
	}
	rc := rules.Config{
		FilterCorrelate:             cfg.FilterCorrelate,
		JoinConditionSimplification: cfg.JoinConditionSimplification,
	}
	_ = stage("hep.rewrite", &st.hep, func() error {
		lp = hep.RunGroups(lp, rules.Stage1Groups(rc))
		return nil
	})
	est := stats.New(e.Catalog(), !cfg.SwamiSchieferEstimation)
	est.Misestimate = cfg.StatsMisestimate
	vp := volcano.New(volcano.Config{
		Rules:                 rc,
		TwoPhase:              cfg.TwoPhaseOptimization,
		EnableHashJoin:        cfg.HashJoin,
		FullyDistributedJoins: cfg.FullyDistributedJoins,
		Sites:                 cfg.Sites,
		Est:                   est,
		CostParams: cost.Params{
			LegacyUnits:           !cfg.StandardCostUnits,
			ExchangePenaltyBug:    !cfg.FixExchangePenalty,
			UseDistributionFactor: cfg.DistributionFactor,
		},
		Budget: cfg.PlanningBudget,
	})
	var pp physical.Node
	if err := stage("volcano.optimize", &st.volcano, func() (err error) {
		pp, err = vp.Optimize(lp)
		return err
	}); err != nil {
		return "", st, err
	}
	st.tickets = vp.TicketsUsed
	var fp *fragment.Plan
	_ = stage("fragment.split", &st.split, func() error {
		fp = fragment.Split(pp)
		if cfg.RuntimeFilters {
			fragment.PlanRuntimeFilters(fp)
		}
		return nil
	})
	st.fragments = len(fp.Fragments)

	var sb strings.Builder
	sb.WriteString(fp.Format())
	for _, rf := range fp.Filters {
		sb.WriteString(rf.Describe())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "planner tickets: %d\n", vp.TicketsUsed)
	return sb.String(), st, nil
}

// stageAcc averages staged pipeline passes over a workload's templates.
type stageAcc struct {
	n                                int
	parse, bind, hep, volcano, split time.Duration
	tickets, fragments               int
}

// profileTemplates runs the staged pipeline reps times over every text,
// failing if any rendering differs from Engine.Explain, and accumulates
// the per-text medians of each stage.
func profileTemplates(e *gignite.Engine, texts []string, reps int, tr *tracer) (stageAcc, error) {
	var acc stageAcc
	for i, text := range texts {
		want, err := e.Explain(text)
		if err != nil {
			return acc, fmt.Errorf("explain %q: %w", abbrev(text), err)
		}
		var runs []stageTimes
		for r := 0; r < reps; r++ {
			root := tr.begin("pipeline", -1, int64(-1-i))
			got, st, err := stagedExplain(e, text, tr, root, int64(-1-i))
			tr.end(root)
			if err != nil {
				return acc, fmt.Errorf("staged plan %q: %w", abbrev(text), err)
			}
			if got != want {
				return acc, fmt.Errorf("staged pipeline renders another plan than Engine.Explain for %q:\n--- staged\n%s--- explain\n%s", abbrev(text), got, want)
			}
			runs = append(runs, st)
		}
		pick := func(f func(stageTimes) time.Duration) time.Duration {
			xs := make([]float64, len(runs))
			for j, r := range runs {
				xs[j] = float64(f(r))
			}
			return time.Duration(median(xs))
		}
		acc.n++
		acc.parse += pick(func(s stageTimes) time.Duration { return s.parse })
		acc.bind += pick(func(s stageTimes) time.Duration { return s.bind })
		acc.hep += pick(func(s stageTimes) time.Duration { return s.hep })
		acc.volcano += pick(func(s stageTimes) time.Duration { return s.volcano })
		acc.split += pick(func(s stageTimes) time.Duration { return s.split })
		acc.tickets += runs[0].tickets
		acc.fragments += runs[0].fragments
	}
	return acc, nil
}

func (a stageAcc) metrics() []metric {
	n := float64(a.n)
	if a.n == 0 {
		n = 1
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / n }
	return []metric{
		{"sql.parse_us", "us", us(a.parse)},
		{"binder.bind_us", "us", us(a.bind)},
		{"hep.rewrite_us", "us", us(a.hep)},
		{"volcano.optimize_us", "us", us(a.volcano)},
		{"volcano.tickets", "count", float64(a.tickets) / n},
		{"fragment.split_us", "us", us(a.split)},
		{"fragment.fragments", "count", float64(a.fragments) / n},
	}
}

func abbrev(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}
