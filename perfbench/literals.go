package main

import (
	"fmt"
	"time"
)

// rng is a splitmix64 stream. Every random choice the benchmark makes —
// generator seed, literals, request order — comes from one of these,
// derived from the run's --seed and a stream name, so a seed fixes the
// inputs completely.
type rng struct{ state uint64 }

func newRNG(seed int64, stream string) *rng {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 0x100000001b3
	}
	return &rng{state: h}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a uniform integer in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

func (r *rng) pick(options []string) string { return options[r.intn(len(options))] }

// day formats the date d days after 1992-01-01, the first TPC-H order date.
func day(d int) string {
	return time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d).Format("2006-01-02")
}

// TPC-H dates run from 1992-01-01 to 1998-12-31; orders stop at 1998-08-02.
const lastOrderDay = 2405

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
)

// adhocTemplate is a multi-join TPC-H shape whose literals are drawn per
// request.
type adhocTemplate struct {
	name string
	gen  func(r *rng) string
}

// adhocTemplates are the ad-hoc join shapes of adhoc-serve. Each has a
// total order or no LIMIT, so the answer is a set the reference
// interpreter reproduces exactly.
var adhocTemplates = []adhocTemplate{
	{"join-q3", func(r *rng) string {
		d := r.between(400, lastOrderDay-400)
		return fmt.Sprintf(`SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '%s' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '%s' AND l_shipdate > DATE '%s'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, l_orderkey
LIMIT 20`, r.pick(segments), day(d), day(d))
	}},
	{"join-q5", func(r *rng) string {
		d := r.between(0, lastOrderDay-365)
		return fmt.Sprintf(`SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '%s' AND o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s'
GROUP BY n_name`, r.pick(regions), day(d), day(d+365))
	}},
	{"join-q10", func(r *rng) string {
		d := r.between(0, lastOrderDay-92)
		return fmt.Sprintf(`SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, n_name`, day(d), day(d+92))
	}},
	{"join-q12", func(r *rng) string {
		d := r.between(0, lastOrderDay-365)
		m1 := r.intn(len(shipModes))
		m2 := (m1 + 1 + r.intn(len(shipModes)-1)) % len(shipModes)
		return fmt.Sprintf(`SELECT l_shipmode, COUNT(*) AS lines, SUM(o_totalprice) AS total
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('%s', '%s') AND o_orderpriority = '%s'
  AND l_receiptdate >= DATE '%s' AND l_receiptdate < DATE '%s'
GROUP BY l_shipmode`, shipModes[m1], shipModes[m2], r.pick(priorities), day(d), day(d+365))
	}},
	{"join-q14", func(r *rng) string {
		lo := r.between(1, 40)
		d := r.between(0, lastOrderDay-180)
		return fmt.Sprintf(`SELECT p_brand, COUNT(*) AS lines, SUM(l_quantity) AS qty
FROM lineitem, part
WHERE l_partkey = p_partkey AND p_size BETWEEN %d AND %d
  AND l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s'
GROUP BY p_brand`, lo, lo+10, day(d), day(d+180))
	}},
}

// preparedSQL is adhoc-serve's prepared statement: a customer's orders
// with their lines. Its plan is retained by the statement, so every
// execution skips planning.
const preparedSQL = `SELECT o_orderkey, o_orderdate, o_totalprice, l_linenumber, l_quantity
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND o_custkey = ?`

// wideSQL returns a lineitem window of four years: about 3,400 rows at
// adhoc-serve's scale, so result streaming dominates the request.
func wideSQL(r *rng) string {
	d := r.between(0, lastOrderDay-1460)
	return fmt.Sprintf(`SELECT l_orderkey, l_linenumber, l_partkey, l_quantity, l_extendedprice, l_shipdate
FROM lineitem
WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s'`, day(d), day(d+1460))
}

// rangeSQL is ingest-mixed's index-ordered range read: an orders key range
// merge-joined with its lines, which the planner serves from the orders
// and lineitem primary-key indexes.
func rangeSQL(lo, hi int) string {
	return fmt.Sprintf(`SELECT o_orderkey, o_orderdate, COUNT(*) AS lines, SUM(l_quantity) AS qty
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND o_orderkey BETWEEN %d AND %d
GROUP BY o_orderkey, o_orderdate`, lo, hi)
}
