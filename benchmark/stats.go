package main

import (
	"math"
	"slices"
)

// quantile returns the p-quantile of sorted by linear interpolation at
// position p·(n+1), the "exclusive" method of Python's
// statistics.quantiles, so quartiles printed here match the ones an
// outside checker computes from the same values. p = 0.5 is the median.
func quantile[T int64 | float64](sorted []T, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return float64(sorted[0])
	}
	pos := p * float64(n+1)
	j := min(max(int(pos), 1), n-1)
	lo, hi := float64(sorted[j-1]), float64(sorted[j])
	return lo + (hi-lo)*(pos-float64(j))
}

// summary is what is kept of one metric's per-round values. Value is the
// figure reported; the rest says how the rounds were spread around it.
type summary struct {
	Value  float64    `json:"value"`
	Halves [2]float64 `json:"halves"` // Value recomputed from the even and from the odd rounds
	Median float64    `json:"median"`
	Q1     float64    `json:"q1"`
	Q3     float64    `json:"q3"`
	Min    float64    `json:"min"`
	Max    float64    `json:"max"`
	N      int        `json:"n"`
}

// bestDecile is the value that one round in ten beats: with n rounds, the
// (n-1)/10-th from the best end (the best itself below 11 rounds). No
// interpolation, so it is always a value some round measured.
func bestDecile(vals []float64, higher bool) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	if higher {
		slices.Reverse(s)
	}
	return s[(len(s)-1)/10]
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// summarize reduces a metric's per-round values. reduce picks the
// reported value; it is applied again to the even and to the odd rounds,
// and how far those two halves disagree is how far the value can be
// trusted.
func summarize(vals []float64, reduce func([]float64) float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	out := summary{
		Value: reduce(vals), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1], N: len(s),
	}
	var halves [2][]float64
	for i, v := range vals {
		halves[i%2] = append(halves[i%2], v)
	}
	for i, h := range halves {
		out.Halves[i] = out.Value // a single round has no second half
		if len(h) > 0 {
			out.Halves[i] = reduce(h)
		}
	}
	return out
}

// halfGap is how far the two halves of the rounds disagree about Value.
func (s summary) halfGap() float64 { return math.Abs(s.Halves[0] - s.Halves[1]) }

// samples collects per-operation latencies (ns) for one op kind in one
// latency phase. The backing array is allocated once per client and
// reused, so recording allocates nothing.
type samples struct{ ns []int64 }

func (s *samples) add(d int64) { s.ns = append(s.ns, d) }
func (s *samples) reset()      { s.ns = s.ns[:0] }

// percentileUs sorts in place and returns the p-quantile in microseconds.
func (s *samples) percentileUs(ps ...float64) []float64 {
	slices.Sort(s.ns)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = quantile(s.ns, p) / 1e3
	}
	return out
}
