package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail with fewer than ten samples beyond it is one or two outliers,
// not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// how many samples lie beyond it. It refuses a tail that has fewer than
// minBeyond samples beyond it, naming how many samples it would need.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v outside (0,1)", q)
	}
	n := len(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		need := int(math.Ceil(float64(minBeyond) / (1 - q)))
		return 0, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d beyond (about %d samples)",
			q*100, n, beyond, minBeyond, need)
	}
	s := sortedCopy(xs)
	return s[idx], nil
}

// minSamples is the smallest sample count for which percentile(q) has
// minBeyond samples beyond it.
func minSamples(q float64) int {
	for n := minBeyond + 1; ; n++ {
		idx := int(math.Ceil(q*float64(n))) - 1
		if n-1-idx >= minBeyond {
			return n
		}
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts a run's operations: every attempted op is either good or
// a named failure. fail_ratio is failed/attempted.
type tally struct {
	attempted int
	failed    int
	// reasons keeps the first few failure messages, and counts by kind,
	// so a failing run says what went wrong.
	reasons []string
	kinds   map[string]int
}

// ok records one op that succeeded.
func (t *tally) ok() { t.attempted++ }

// fail records one op that failed with a named kind and detail.
func (t *tally) fail(kind, detail string) {
	t.attempted++
	t.failed++
	if t.kinds == nil {
		t.kinds = map[string]int{}
	}
	t.kinds[kind]++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, kind+": "+detail)
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, n := range o.kinds {
		if t.kinds == nil {
			t.kinds = map[string]int{}
		}
		t.kinds[k] += n
	}
	for _, r := range o.reasons {
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// failRatio is failed/attempted; 0 when nothing was attempted.
func (t tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
