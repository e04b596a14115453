package power

import (
	"math"
	"math/rand"
)

// The batched analysis kernels. A trace matrix spends its life being
// re-walked: DPA runs 256 key guesses per byte, CPA another 256, the
// adaptive engine regrades after every checkpoint extension. The arena
// keeps every sample of a cell's traces int16-quantized in ONE contiguous
// backing array, groups them once per byte into exact integer class
// sums, and scores all 256 guesses of a distinguisher with two
// Walsh–Hadamard transforms over those sums — and, because every sum is
// exact in int64, the results are bit-identical to a naive float64
// computation over the dequantized samples — the reference the package
// tests pin them against (see the equivalence argument on Quantize).

// Scale is the quantization grid of the simulated acquisition ADC: one
// step per 1/256 of a leakage unit. It is a power of two, which is what
// makes the integer kernels bit-identical to the float64 reference:
// dequantization (q/256) only shifts the float64 exponent, so sums,
// means and Pearson terms computed from raw int16 steps equal the
// reference values scaled by an exact power of two.
const Scale = 256

// maxQ clamps quantized samples to the int16 range, like a saturating
// ADC. HW-model leakage (|signal| <= ~10 units) sits four orders of
// magnitude below the clamp; only idealized identity probes can reach it.
const maxQ = math.MaxInt16

// Quantize maps one leakage sample onto the acquisition grid: the
// nearest multiple of 1/Scale, saturating at the int16 rails.
//
// Exactness envelope: with |q| <= 2^13 (any HW/HD-model signal) and
// n <= 2^13 traces of <= 2^9 points, every sum the kernels form —
// Σq, Σq², Σhw·q and their n-scaled Pearson terms — stays below 2^53,
// so int64 accumulation is exact and float64 conversion is lossless.
// A naive float64 computation over the dequantized samples sums the same
// values scaled by 2^-8 (per y factor) in a different association order; exact arithmetic makes
// reassociation harmless, which is the whole equivalence proof.
func Quantize(x float64) int16 {
	q := math.Round(x * Scale)
	if q > maxQ {
		return maxQ
	}
	if q < -maxQ {
		return -maxQ
	}
	return int16(q)
}

// Dequant maps a quantized sample back to leakage units, exactly.
func Dequant(q int16) float64 { return float64(q) / Scale }

// Arena is the int16-quantized trace matrix of one cell: every sample of
// every trace lives in one contiguous backing array, with the per-trace
// public inputs packed alongside. It is the unit of per-worker scratch
// reuse — Reset keeps the grown backing so the adaptive engine's Extend
// passes and the next cell on the same worker record without touching
// the heap.
type Arena struct {
	qs   []int16 // all samples, trace i at offs[i] : offs[i]+lens[i]
	offs []int32
	lens []int32

	inputs   []byte // all inputs, trace i at i*inputLen
	inputLen int

	rec    Recorder // reusable capture front-end for BeginTrace
	tstart int      // backing offset of the trace being recorded

	// pts caches Points(); -1 = dirty.
	pts int

	// Cached per-point Σq and Σq² over the common prefix (the
	// hypothesis-independent Pearson terms), valid at colN traces.
	colN    int
	sy, syy []int64

	// One cached class grouping (per-plaintext-byte-value sums): valid
	// for byte index clsIdx at clsN traces. The 256 class vectors live
	// back to back in clsSums (class v at v*pts). Their all-class
	// per-point total is colSums' Σq.
	clsIdx, clsN int
	clsCount     [256]int32
	clsSums      []int64

	// wht is the 256×pts scratch block of the all-guess kernels
	// (DifferenceOfMeansXor, MaxAbsPearsonXor): the class sums are copied
	// in and transformed in place, so a warm regrade never touches the
	// heap.
	wht []int64

	// stage is the StageInput scratch buffer.
	stage []byte
}

// NewArena returns an arena for traces tagged with inputLen-byte inputs.
func NewArena(inputLen int) *Arena {
	return &Arena{inputLen: inputLen, pts: -1, clsIdx: -1}
}

// Reset empties the arena, keeping every grown backing array for reuse.
func (a *Arena) Reset() {
	a.qs = a.qs[:0]
	a.offs = a.offs[:0]
	a.lens = a.lens[:0]
	a.inputs = a.inputs[:0]
	a.invalidate()
}

// Grow pre-reserves room for n more traces of about pts points each, so
// a subsequent Extend pass of that size stays allocation-free.
func (a *Arena) Grow(n, pts int) {
	need := len(a.qs) + n*pts
	if cap(a.qs) < need {
		qs := make([]int16, len(a.qs), need+need/4)
		copy(qs, a.qs)
		a.qs = qs
	}
	if cap(a.offs) < len(a.offs)+n {
		offs := make([]int32, len(a.offs), len(a.offs)+n)
		copy(offs, a.offs)
		a.offs = offs
		lens := make([]int32, len(a.lens), len(a.lens)+n)
		copy(lens, a.lens)
		a.lens = lens
	}
	if cap(a.inputs) < len(a.inputs)+n*a.inputLen {
		in := make([]byte, len(a.inputs), len(a.inputs)+n*a.inputLen)
		copy(in, a.inputs)
		a.inputs = in
	}
}

func (a *Arena) invalidate() {
	a.pts = -1
	a.colN = -1
	a.clsIdx = -1
}

// Len returns the number of recorded traces.
func (a *Arena) Len() int { return len(a.offs) }

// Input returns trace i's public input (aliasing the arena backing).
func (a *Arena) Input(i int) []byte {
	return a.inputs[i*a.inputLen : (i+1)*a.inputLen]
}

// Trace returns trace i's quantized samples (aliasing the arena backing).
func (a *Arena) Trace(i int) []int16 {
	return a.qs[a.offs[i] : a.offs[i]+int32(a.lens[i])]
}

// StageInput returns an arena-owned inputLen-byte scratch buffer for
// composing the next trace's input. Collection loops fill it (e.g. with
// random plaintexts) and pass it to EndTrace without any per-trace
// allocation — a local buffer would escape through the victim interface.
func (a *Arena) StageInput() []byte {
	if a.stage == nil {
		a.stage = make([]byte, a.inputLen)
	}
	return a.stage
}

// BeginTrace starts recording one trace through the given probe. The
// returned Recorder is the arena's own (reused across traces): Leak
// appends quantized samples to the contiguous backing, and EndTrace
// seals the trace. At most one trace may be recording at a time.
func (a *Arena) BeginTrace(p *Probe) *Recorder {
	if p.jrng == nil {
		// The hiding-jitter stream is seeded from the jitter bound, so
		// a probe's delays replay identically on every run.
		p.jrng = rand.New(rand.NewSource(0x7ace + int64(p.JitterMax)))
	}
	a.tstart = len(a.qs)
	a.rec = Recorder{Probe: p, arena: a}
	return &a.rec
}

// EndTrace seals the trace started by BeginTrace under the given input.
func (a *Arena) EndTrace(input []byte) {
	if len(input) != a.inputLen {
		panic("power: arena input length mismatch")
	}
	a.offs = append(a.offs, int32(a.tstart))
	a.lens = append(a.lens, int32(len(a.qs)-a.tstart))
	a.inputs = append(a.inputs, input...)
	a.invalidate()
}

// Points returns the number of usable sample points (minimum trace
// length): jittered traces have ragged lengths, and the statistics run
// over their common prefix.
func (a *Arena) Points() int {
	if a.pts >= 0 {
		return a.pts
	}
	if len(a.lens) == 0 {
		a.pts = 0
		return 0
	}
	min := int(a.lens[0])
	for _, l := range a.lens[1:] {
		if int(l) < min {
			min = int(l)
		}
	}
	a.pts = min
	return min
}

// colSums returns the cached per-point Σq and Σq² (int64, exact) over
// the common prefix, recomputing when the set has grown.
func (a *Arena) colSums() (sy, syy []int64) {
	pts := a.Points()
	if a.colN == a.Len() && len(a.sy) == pts {
		return a.sy, a.syy
	}
	if cap(a.sy) < pts {
		a.sy = make([]int64, pts)
		a.syy = make([]int64, pts)
	}
	a.sy = a.sy[:pts]
	a.syy = a.syy[:pts]
	clear(a.sy)
	clear(a.syy)
	for i := 0; i < a.Len(); i++ {
		tr := a.qs[a.offs[i]:][:pts]
		for j, q := range tr {
			y := int64(q)
			a.sy[j] += y
			a.syy[j] += y * y
		}
	}
	a.colN = a.Len()
	return a.sy, a.syy
}

// QClassSums groups the arena's traces by the value of input byte
// byteIdx: 256 per-class sum vectors (int64, exact) in one contiguous
// block, plus per-class trace counts.
// One grouping is cached; regrouping by another byte index or after an
// extension overwrites it in place.
type QClassSums struct {
	a   *Arena
	pts int
	n   int
}

// ClassSumsFor returns the (cached) class grouping for input byte
// byteIdx. The grouping pass costs one walk of the trace matrix and then
// serves all 256 key guesses of both DPA and CPA.
func (a *Arena) ClassSumsFor(byteIdx int) QClassSums {
	pts := a.Points()
	cs := QClassSums{a: a, pts: pts, n: a.Len()}
	if a.clsIdx == byteIdx && a.clsN == a.Len() && len(a.clsSums) == 256*pts {
		return cs
	}
	if cap(a.clsSums) < 256*pts {
		a.clsSums = make([]int64, 256*pts)
	}
	a.clsSums = a.clsSums[:256*pts]
	clear(a.clsSums)
	for i := range a.clsCount {
		a.clsCount[i] = 0
	}
	for i := 0; i < a.Len(); i++ {
		v := a.inputs[i*a.inputLen+byteIdx]
		a.clsCount[v]++
		dst := a.clsSums[int(v)*pts:][:pts]
		tr := a.qs[a.offs[i]:][:pts]
		for j, q := range tr {
			dst[j] += int64(q)
		}
	}
	a.clsIdx = byteIdx
	a.clsN = a.Len()
	return cs
}

// The all-guess distinguishers. A key guess k changes which classes a
// hypothesis weights, never the class sums themselves: the DPA selected
// sum and the CPA Σxy of guess k are both the XOR-correlation
// S_k = Σ_v w[v⊕k]·C_v of a 256-entry weight vector w with the 256 class
// rows C. The Walsh–Hadamard transform H diagonalizes XOR-correlation
// (H·H = 256·I), so S = H(Hw ⊙ HC)/256 yields all 256 guesses for about
// 2·256·8 adds per point instead of 256 weighted 256-row sums.
//
// Exactness: |C_v| <= n·2^15 <= 2^28 at n <= 2^13 traces. The forward
// transform grows magnitudes by at most 2^8, Hw is at most 2^8 (DPA's 0/1
// selection) or 2^11 (CPA's 0..8 Hamming weights), and the inverse grows
// them by at most 2^8 again, so every intermediate stays within 2^55 <
// 2^63 and the final division by 256 is exact. The int64 sums equal the
// per-guess sums term for term, and the float64 epilogue consumes them
// through the per-point expressions of the float64 reference, in the same
// order — so every statistic equals the reference bit for bit.

// fwht runs the in-place unnormalized Walsh–Hadamard transform across
// the 256 rows of blk (row u at u*m, m values each). Each pass fuses two
// butterfly stages over four whole rows, so every inner loop is a
// contiguous m-length walk and the block is swept four times, not eight.
func fwht(blk []int64, m int) {
	for h := 1; h < 256; h *= 4 {
		for i := 0; i < 256; i += 4 * h {
			for r := i; r < i+h; r++ {
				x0 := blk[r*m:][:m]
				x1 := blk[(r+h)*m:][:m]
				x2 := blk[(r+2*h)*m:][:m]
				x3 := blk[(r+3*h)*m:][:m]
				for j := range x0 {
					a, b := x0[j]+x1[j], x0[j]-x1[j]
					c, d := x2[j]+x3[j], x2[j]-x3[j]
					x0[j], x1[j], x2[j], x3[j] = a+c, b+d, a-c, b-d
				}
			}
		}
	}
}

// xorCorrelate overwrites the 256 rows of blk (row v at v*m) with their
// XOR-correlation against the weights whose transform is wh: row k
// becomes Σ_v w[v⊕k]·row_v, exactly.
func xorCorrelate(blk []int64, m int, wh *[256]int64) {
	fwht(blk, m)
	for u, f := range wh {
		row := blk[u*m:][:m]
		for j := range row {
			row[j] *= f
		}
	}
	fwht(blk, m)
	for i := range blk {
		blk[i] /= 256
	}
}

// transform returns Hw, the Walsh–Hadamard transform of w.
func transform(w [256]int64) [256]int64 {
	fwht(w[:], 1)
	return w
}

// classCounts returns the class trace counts correlated against the
// weights whose transform is wh: entry k is Σ_v w[v⊕k]·count_v.
func (cs QClassSums) classCounts(wh *[256]int64) [256]int64 {
	var c [256]int64
	for v, n := range cs.a.clsCount {
		c[v] = int64(n)
	}
	xorCorrelate(c[:], 1, wh)
	return c
}

// correlateClasses copies the cached class sums into the arena-owned
// 256×pts scratch block and XOR-correlates them against the weights
// whose transform is wh: row k of the returned block holds the per-point
// Σ_v w[v⊕k]·C_v for guess k.
func (cs QClassSums) correlateClasses(wh *[256]int64) []int64 {
	a, m := cs.a, 256*cs.pts
	if cap(a.wht) < m {
		a.wht = make([]int64, m)
	}
	blk := a.wht[:m]
	copy(blk, a.clsSums)
	xorCorrelate(blk, cs.pts, wh)
	return blk
}

// DifferenceOfMeansXor fills out[k] with the maximum absolute
// difference of mean traces between the classes v with s[v⊕k] set and
// the rest — Kocher's DPA distinguisher for all 256 key guesses in one
// call. Because the class sums are exact integers, the unselected
// partition is the cached column total Σq minus the selected sum (no
// second accumulation pass), and every out[k] equals the naive
// two-partition float64 walk bit for bit. An empty or full partition
// yields 0.
func (cs QClassSums) DifferenceOfMeansXor(s *[256]bool, out *[256]float64) {
	*out = [256]float64{}
	a, pts := cs.a, cs.pts
	if pts == 0 {
		return
	}
	var w [256]int64
	for v, sel := range s {
		if sel {
			w[v] = 1
		}
	}
	wh := transform(w)
	n1s := cs.classCounts(&wh)
	blk := cs.correlateClasses(&wh)
	sy, _ := a.colSums()
	for k, n1 := range n1s {
		n0 := int64(cs.n) - n1
		if n0 == 0 || n1 == 0 {
			continue
		}
		f1, f0 := float64(n1), float64(n0)
		best := 0.0
		for j, s1 := range blk[k*pts:][:pts] {
			d := math.Abs(float64(s1)/f1 - float64(sy[j]-s1)/f0)
			if d > best {
				best = d
			}
		}
		out[k] = best / Scale
	}
}

// MaxAbsPearsonXor fills out[k] with the largest |Pearson correlation|
// across all points for the per-class hypothesis v ↦ h[v⊕k] (one model
// value per possible input-byte value) — the CPA distinguisher for all
// 256 key guesses in one call. The hypothesis for trace i depends on i
// only through its class, so Σx, Σx² and Σxy all collapse onto the class
// counts and class sums, and exact integer arithmetic keeps every out[k]
// bit-identical to the per-trace float64 Pearson walk over the
// dequantized traces.
func (cs QClassSums) MaxAbsPearsonXor(h *[256]int64, out *[256]float64) {
	*out = [256]float64{}
	a, pts := cs.a, cs.pts
	n := float64(cs.n)
	if cs.n < 2 || pts == 0 {
		return
	}
	var h2 [256]int64
	for v, x := range h {
		h2[v] = x * x
	}
	wh, wh2 := transform(*h), transform(h2)
	sxs, sxxs := cs.classCounts(&wh), cs.classCounts(&wh2)
	blk := cs.correlateClasses(&wh)
	sy, syy := a.colSums()
	for k := range out {
		hden := math.Sqrt(n*float64(sxxs[k]) - float64(sxs[k])*float64(sxs[k]))
		fsx := float64(sxs[k])
		best := 0.0
		for j, sxy := range blk[k*pts:][:pts] {
			num := n*float64(sxy) - fsx*float64(sy[j])
			den := hden * math.Sqrt(n*float64(syy[j])-float64(sy[j])*float64(sy[j]))
			if den == 0 {
				continue
			}
			if r := math.Abs(num / den); r > best {
				best = r
			}
		}
		out[k] = best
	}
}
