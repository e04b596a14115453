package power

import (
	"math"
	"testing"
)

// The float64 reference the arena kernels are pinned against: the
// textbook per-trace DPA/CPA statistics over dequantized samples. It
// lives in test files only — production records and analyses through
// the Arena — and is exported so the external power_test package can
// pin the full DPA/CPA attacks against it as well.

// Trace is one captured measurement in leakage units.
type Trace []float64

// TraceSet is a matrix of traces (rows) by sample points (columns).
// Traces may have ragged lengths when jitter is on; statistics run over
// the common prefix.
type TraceSet struct {
	Traces []Trace
	// Inputs holds per-trace public data (e.g. plaintexts).
	Inputs [][]byte

	// cols caches the hypothesis-independent per-point sums the CPA
	// distinguisher reuses across all 256 key guesses; Add invalidates it.
	cols *colSums
}

// ReferenceSet dequantizes every trace of the arena into a TraceSet:
// exactly the float64 samples the recorded leakage stands for.
func ReferenceSet(a *Arena) *TraceSet {
	ts := &TraceSet{}
	for i := 0; i < a.Len(); i++ {
		q := a.Trace(i)
		tr := make(Trace, len(q))
		for j, x := range q {
			tr[j] = Dequant(x)
		}
		ts.Add(tr, append([]byte(nil), a.Input(i)...))
	}
	return ts
}

// colSums are the per-point trace sums Σy and Σy² over the common prefix,
// plus the trace count they were computed at.
type colSums struct {
	n   int
	pts int
	sy  []float64
	syy []float64
}

// Add appends a trace with its associated public input.
func (ts *TraceSet) Add(tr Trace, input []byte) {
	ts.Traces = append(ts.Traces, tr)
	ts.Inputs = append(ts.Inputs, input)
	ts.cols = nil
}

// colSums returns the cached per-point sums, computing them on first use.
// Accumulation runs in trace order per point, exactly like a direct
// per-point Pearson loop.
func (ts *TraceSet) colSums() *colSums {
	if ts.cols != nil && ts.cols.n == len(ts.Traces) {
		return ts.cols
	}
	cs := &colSums{n: len(ts.Traces), pts: ts.Points()}
	cs.sy = make([]float64, cs.pts)
	cs.syy = make([]float64, cs.pts)
	for _, tr := range ts.Traces {
		for j := 0; j < cs.pts; j++ {
			y := tr[j]
			cs.sy[j] += y
			cs.syy[j] += y * y
		}
	}
	ts.cols = cs
	return cs
}

// Len returns the number of traces.
func (ts *TraceSet) Len() int { return len(ts.Traces) }

// Points returns the number of usable sample points (minimum length).
func (ts *TraceSet) Points() int {
	if len(ts.Traces) == 0 {
		return 0
	}
	min := len(ts.Traces[0])
	for _, tr := range ts.Traces[1:] {
		if len(tr) < min {
			min = len(tr)
		}
	}
	return min
}

// MaxAbsPearson returns the largest |correlation| across all points
// between the hypothesis vector h (one value per trace) and the samples
// — the CPA distinguisher statistic.
func (ts *TraceSet) MaxAbsPearson(h []float64) float64 {
	n := float64(len(ts.Traces))
	if n < 2 {
		return 0
	}
	cols := ts.colSums()
	var sx, sxx float64
	for _, x := range h {
		sx += x
		sxx += x * x
	}
	hden := math.Sqrt(n*sxx - sx*sx)
	best := 0.0
	for j := 0; j < cols.pts; j++ {
		var sxy float64
		for i, tr := range ts.Traces {
			sxy += h[i] * tr[j]
		}
		num := n*sxy - sx*cols.sy[j]
		den := hden * math.Sqrt(n*cols.syy[j]-cols.sy[j]*cols.sy[j])
		if den == 0 {
			continue
		}
		if r := math.Abs(num / den); r > best {
			best = r
		}
	}
	return best
}

// ClassSums are per-class pointwise trace sums: every trace is assigned
// one of 256 classes (for DPA, the value of one plaintext byte) and its
// samples accumulate into that class's sum vector.
type ClassSums struct {
	pts   int
	count [256]int
	sums  [256][]float64 // nil for classes with no traces
}

// ClassSums groups the set's traces by class(i) over the common prefix,
// in trace order per class.
func (ts *TraceSet) ClassSums(class func(i int) uint8) *ClassSums {
	cs := &ClassSums{pts: ts.Points()}
	for i, tr := range ts.Traces {
		v := class(i)
		s := cs.sums[v]
		if s == nil {
			s = make([]float64, cs.pts)
			cs.sums[v] = s
		}
		cs.count[v]++
		for j := 0; j < cs.pts; j++ {
			s[j] += tr[j]
		}
	}
	return cs
}

// DifferenceOfMeans partitions the classes with selected and returns the
// maximum absolute difference of mean traces between the two partitions
// — Kocher's DPA distinguisher. Both partitions are summed from the
// class vectors in ascending class order; an empty partition yields 0.
func (cs *ClassSums) DifferenceOfMeans(selected func(v uint8) bool) float64 {
	if cs.pts == 0 {
		return 0
	}
	sum0 := make([]float64, cs.pts)
	sum1 := make([]float64, cs.pts)
	var n0, n1 float64
	for v := 0; v < 256; v++ {
		s := cs.sums[v]
		if s == nil {
			continue
		}
		if selected(uint8(v)) {
			n1 += float64(cs.count[v])
			for j, x := range s {
				sum1[j] += x
			}
		} else {
			n0 += float64(cs.count[v])
			for j, x := range s {
				sum0[j] += x
			}
		}
	}
	if n0 == 0 || n1 == 0 {
		return 0
	}
	best := 0.0
	for j := 0; j < cs.pts; j++ {
		d := math.Abs(sum1[j]/n1 - sum0[j]/n0)
		if d > best {
			best = d
		}
	}
	return best
}

func TestPearsonCorrelation(t *testing.T) {
	// One single-point set per shape: perfectly correlated,
	// anti-correlated (|r| = 1 as well) and constant.
	corr := func(y func(x float64) float64) float64 {
		ts := &TraceSet{}
		h := make([]float64, 50)
		for i := range h {
			h[i] = float64(i)
			ts.Add(Trace{y(h[i])}, nil)
		}
		return ts.MaxAbsPearson(h)
	}
	if r := corr(func(x float64) float64 { return 2*x + 1 }); math.Abs(r-1) > 1e-9 {
		t.Errorf("correlated point: max |corr| = %v", r)
	}
	if r := corr(func(x float64) float64 { return -x }); math.Abs(r-1) > 1e-9 {
		t.Errorf("anti-correlated point: max |corr| = %v", r)
	}
	if r := corr(func(float64) float64 { return 3 }); r != 0 {
		t.Errorf("constant point: max |corr| = %v", r)
	}
}

func TestDifferenceOfMeans(t *testing.T) {
	ts := &TraceSet{}
	for i := 0; i < 100; i++ {
		base := 1.0
		if i%2 == 0 {
			base = 5.0 // group-dependent level at point 1
		}
		ts.Add(Trace{2.0, base}, nil)
	}
	cs := ts.ClassSums(func(i int) uint8 { return uint8(i % 2) })
	d := cs.DifferenceOfMeans(func(v uint8) bool { return v == 0 })
	if math.Abs(d-4.0) > 1e-9 {
		t.Errorf("DoM = %v, want 4", d)
	}
	// Degenerate partitions yield zero.
	if cs.DifferenceOfMeans(func(uint8) bool { return true }) != 0 {
		t.Error("one-sided partition nonzero")
	}
}

func TestTraceSetPointsRagged(t *testing.T) {
	ts := &TraceSet{}
	ts.Add(Trace{1, 2, 3}, nil)
	ts.Add(Trace{4, 5}, nil)
	if ts.Points() != 2 {
		t.Errorf("points = %d", ts.Points())
	}
}

func TestEmptyTraceSet(t *testing.T) {
	ts := &TraceSet{}
	if ts.Points() != 0 || ts.Len() != 0 {
		t.Error("empty set not empty")
	}
	cs := ts.ClassSums(func(int) uint8 { return 0 })
	if cs.DifferenceOfMeans(func(uint8) bool { return false }) != 0 {
		t.Error("empty DoM nonzero")
	}
}
