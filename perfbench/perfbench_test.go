package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestPercentileTenBeyond(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if got := percentile(samples, 0.95); got != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190", got)
	}
	if got := beyond(200, 0.95); got != 10 {
		t.Fatalf("beyond(200, p95) = %d, want 10", got)
	}
	if got := beyond(199, 0.95); got != 9 {
		t.Fatalf("beyond(199, p95) = %d, want 9", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.5}, {20, 0.5}, {19, 0}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestGeomeanOfMedians(t *testing.T) {
	got := geomeanOfMedians(map[string][]float64{
		"a": {1, 100, 2},        // median 2
		"b": {8, 8, 8, 8, 8, 8}, // median 8: six samples weigh as much as three
		"c": {},                 // no samples: skipped
	})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestIntervalUnionAndSelfTime(t *testing.T) {
	if got := intervalUnion([][2]int64{{5, 10}, {0, 3}, {2, 4}, {8, 12}}); got != 11 {
		t.Fatalf("union = %d, want 11", got)
	}
	spans := []span{
		{ID: 0, Name: "req", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "call", Start: 10, End: 60, Parent: 0},
		{ID: 2, Name: "call", Start: 50, End: 120, Parent: 0}, // clipped to the parent
		{ID: 3, Name: "inner", Start: 20, End: 30, Parent: 1},
	}
	self := selfTimes(spans)
	if self["req"] != 100-90 || self["call"] != (50-10)+70 || self["inner"] != 10 {
		t.Fatalf("self times = %v", self)
	}
}

func TestCanonicalComparator(t *testing.T) {
	ref := []string{"1" + fieldSep + "100.00" + fieldSep + "x", "2" + fieldSep + "0.50" + fieldSep + "y"}
	cases := []struct {
		got  []string
		want bool
	}{
		{ref, true},
		{[]string{"1" + fieldSep + "100.01" + fieldSep + "x", ref[1]}, true},  // within 0.011
		{[]string{"1" + fieldSep + "100.02" + fieldSep + "x", ref[1]}, false}, // beyond
		{[]string{"1" + fieldSep + "100.00" + fieldSep + "z", ref[1]}, false}, // text differs
		{ref[:1], false}, // row count differs
	}
	for i, c := range cases {
		if ok, detail := sameRows(c.got, ref); ok != c.want {
			t.Errorf("case %d: sameRows = %v (%s), want %v", i, ok, detail, c.want)
		}
	}
	if !approxEqual("1234567.00", "1234567.50") {
		t.Error("relative tolerance: 0.5 on 1.2e6 must match")
	}
	if approxEqual("1994-01-01", "1994-01-02") {
		t.Error("dates are compared as text, not parsed as numbers")
	}
	// Driver values render like engine values.
	if got := canonDriver([]any{int64(7), 2.5, "s", nil, true}); got != strings.Join([]string{"7", "2.50", "s", "NULL", "true"}, fieldSep) {
		t.Errorf("canonDriver = %q", got)
	}
}

func TestLiteralsDeterministic(t *testing.T) {
	a, b := buildAdhocTexts(42, 6, 3), buildAdhocTexts(42, 6, 3)
	c := buildAdhocTexts(43, 6, 3)
	ta, tb, tc := poolTexts(&a), poolTexts(&b), poolTexts(&c)
	if strings.Join(ta, "\n") != strings.Join(tb, "\n") {
		t.Fatal("same seed drew different texts")
	}
	if strings.Join(ta, "\n") == strings.Join(tc, "\n") {
		t.Fatal("different seeds drew the same texts")
	}
	seen := map[string]bool{}
	for _, reqs := range a.joins {
		for _, r := range reqs {
			if seen[r.text] {
				t.Fatalf("duplicate ad-hoc text %q", r.text)
			}
			seen[r.text] = true
		}
	}
	r1, r2 := newRNG(42, "adhoc-client-0"), newRNG(42, "adhoc-client-0")
	for i := 0; i < 100; i++ {
		if a.draw(r1).text != a.draw(r2).text {
			t.Fatal("request sequence differs for one seed")
		}
	}
	o1, l1 := insertBatch(newRNG(5, "w"), 3, 100, 10)
	o2, l2 := insertBatch(newRNG(5, "w"), 3, 100, 10)
	if o1 != o2 || l1 != l2 {
		t.Fatal("insert batches differ for one seed")
	}
}

func poolTexts(p *adhocPool) []string {
	var out []string
	_ = p.each(func(r *adhocReq) error {
		out = append(out, r.text)
		return nil
	})
	return out
}

// TestSmoke runs every workload for a moment at a tiny scale, untraced
// and traced, and checks the result line's shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()
	scaleOverride = 0.001
	defer func() { scaleOverride = 0 }()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.6", "--trace", trace}, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: %+v", w.name, trace, res)
			}
			want := []string{"qps", "latency_p50_ms", "latency_p95_ms", "latency_geomean_ms", "modeled_ms", "setup_s", "heap_live_mb"}
			if trace == "1" {
				want = []string{"volcano.optimize_us", "plancache.hit_ratio", "cluster.busy_ms", "exec.ns_per_row", "storage.index_build_s", "go.gc_cycles", "trace.overhead_p50_pct"}
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.name, trace, m)
				}
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
