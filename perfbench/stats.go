package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place;
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func quantileI64(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// metric is one reported figure. samples, when non-zero, is the count
// behind a percentile or rate.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type report struct {
	metrics []metric
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes every metric as a readable line.
func (r *report) print(w io.Writer, section string) {
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-8s %-34s %16.6g %-8s", section, m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf(" n=%d", m.samples)
		}
		fmt.Fprintln(w, line)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit writes the final result line with the named metrics only.
func emit(w io.Writer, r *report, names []string, correct bool, attempted, failed int64) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		m, ok := r.get(n)
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
