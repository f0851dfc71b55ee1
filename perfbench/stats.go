package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It does not modify xs. An empty slice has
// no median and yields NaN, which the metric writer refuses to print.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks (q=0 is the minimum, q=1 the maximum). It does not
// modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is an estimate of
// a handful of outliers, not a tail.
const minBeyond = 10

// tailOK reports whether the p-th percentile (0 < p < 100) of n samples
// has at least minBeyond samples beyond it.
func tailOK(n int, p float64) bool {
	if p <= 0 || p >= 100 {
		return false
	}
	beyond := float64(n) * (100 - p) / 100
	return beyond >= minBeyond-1e-9
}

// tailPercentiles is the ladder tailPercentile picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond of the samples beyond it, with its value. ok is false
// when even the median lacks that support (fewer than 20 samples).
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if tailOK(len(xs), p) {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, math.NaN(), false
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and holds at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case (r == '_' || r == '.' || r == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_' || r == '/' || r == '%' || r == '.' || r == '-':
		default:
			return false
		}
	}
	return true
}

// metricDef declares one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics turns measured values into the printed metric map. Every
// declared metric must be present and finite, and nothing undeclared may
// appear, so a record always has exactly the shape BENCHMARK.json states.
func buildMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !validName(d.Name) || !validUnit(d.Unit) {
			return nil, fmt.Errorf("metric %q: invalid name or unit %q", d.Name, d.Unit)
		}
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}
