package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"gignite"
	"gignite/internal/types"
)

// fieldSep separates the fields of a canonical row. It cannot occur in
// the generated data, unlike '|'.
const fieldSep = "\x1f"

// canonEngine renders engine rows order-insensitively: one string per
// row, floats rounded to two decimals (distributed partial aggregation sums
// floats in another order than the reference interpreter), sorted.
func canonEngine(rows []gignite.Row) []string {
	out := make([]string, len(rows))
	parts := []string{}
	for i, r := range rows {
		parts = parts[:0]
		for _, v := range r {
			parts = append(parts, canonValue(v))
		}
		out[i] = strings.Join(parts, fieldSep)
	}
	sort.Strings(out)
	return out
}

func canonValue(v types.Value) string {
	if v.K == types.KindFloat {
		return strconv.FormatFloat(v.F, 'f', 2, 64)
	}
	return v.String()
}

// canonDriver renders one row scanned through database/sql in the same
// form canonValue gives the engine's value model.
func canonDriver(vals []any) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			parts[i] = "NULL"
		case int64:
			parts[i] = strconv.FormatInt(x, 10)
		case float64:
			parts[i] = strconv.FormatFloat(x, 'f', 2, 64)
		case string:
			parts[i] = x
		case []byte:
			parts[i] = string(x)
		case bool:
			parts[i] = strconv.FormatBool(x)
		case time.Time:
			parts[i] = x.UTC().Format("2006-01-02")
		default:
			parts[i] = fmt.Sprint(x)
		}
	}
	return strings.Join(parts, fieldSep)
}

// sameRows compares two canonical row sets (both sorted) and describes the
// first difference. Float fields may differ by the tolerance approxEqual
// allows.
func sameRows(got, want []string) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !approxEqual(got[i], want[i]) {
			return false, fmt.Sprintf("row %d: got %q, reference %q",
				i, strings.ReplaceAll(got[i], fieldSep, "|"), strings.ReplaceAll(want[i], fieldSep, "|"))
		}
	}
	return true, ""
}

// approxEqual compares two canonical rows field by field, allowing numeric
// fields a relative difference of 1e-6 or an absolute one of 0.011 (one
// unit of the two-decimal rounding plus slack).
func approxEqual(a, b string) bool {
	if a == b {
		return true
	}
	fa, fb := strings.Split(a, fieldSep), strings.Split(b, fieldSep)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		x, errx := strconv.ParseFloat(fa[i], 64)
		y, erry := strconv.ParseFloat(fb[i], 64)
		if errx != nil || erry != nil {
			return false
		}
		diff := x - y
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if x > 1 || x < -1 {
			if x < 0 {
				scale = -x
			} else {
				scale = x
			}
		}
		if diff/scale > 1e-6 && diff > 0.011 {
			return false
		}
	}
	return true
}
