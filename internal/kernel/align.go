// Fused centred alignment: the KernelAlignment objective read straight from
// block Grams, without materialising their weighted sum or its centred
// copy.
package kernel

import "math"

// AlignScratch holds the n-length row buffers of CenteredAlignment. The
// zero value is ready; a scratch belongs to one goroutine.
type AlignScratch struct {
	acc, mean, y []float64
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// CenteredAlignment returns Alignment(Center(Σ_b w·K_b), y) for the
// symmetric n×n row-major block Grams in blocks, n = len(y), reading each
// block twice and writing nothing of size n².
//
// Both passes walk the upper triangle one row at a time. The combined
// entry acc_ij = Σ_b w·K_b[ij] is built into an n-length row buffer in the
// per-entry order of GramForPartitionScratch (start at 0, add w·K_b[ij] in
// block order), so with w = 1 and one block acc is the block itself. Pass 1
// accumulates the row sums in the order Center does — row j's sum takes
// acc_0j, acc_1j, … as the rows above it are visited, then its own upper
// row — so the row means and grand mean are bit-identical to Center's, and
// so is every centred entry c = acc − m_i − m_j + μ that pass 2 recomputes
// on the fly. Only the Σc² and Σc·y_i·y_j reductions run in a different
// order (diagonal weighted 1, off-diagonal 2), which keeps the score within
// 1e-12 relative of the materialised oracle. The ‖K‖² − (2/n)‖r‖² + s²/n²
// expansion is deliberately avoided: it cancels catastrophically on a
// near-constant Gram.
//
// Accumulation is float64 for either storage type. A Gram whose centred
// entries are all zero scores 0, as Alignment does.
//
//iotml:hotpath
func CenteredAlignment[T float32 | float64](blocks [][]T, w float64, y []int, sc *AlignScratch) float64 {
	n := len(y)
	if n == 0 {
		return 0
	}
	sc.acc = resize(sc.acc, n)
	sc.mean = resize(sc.mean, n)
	sc.y = resize(sc.y, n)
	acc, mean, yf := sc.acc, sc.mean, sc.y
	for i, v := range y {
		yf[i] = float64(v)
		mean[i] = 0
	}
	fn := float64(n)

	// Pass 1: row sums (held in mean until the row is complete) and the
	// grand total.
	total := 0.0
	for i := 0; i < n; i++ {
		row := acc[i:]
		combineRow(row, blocks, i*n+i, w)
		s := mean[i] + row[0]
		up := mean[i+1:]
		for j, v := range row[1:] {
			s += v
			up[j] += v
		}
		total += s
		mean[i] = s / fn
	}
	total /= float64(n * n)

	// Pass 2: centre on the fly and reduce.
	var kkDiag, kyDiag, kkOff, kyOff float64
	for i := 0; i < n; i++ {
		row := acc[i:]
		combineRow(row, blocks, i*n+i, w)
		mi := mean[i]
		c := row[0] - mi - mi + total
		kkDiag += c * c
		kyDiag += c * (yf[i] * yf[i])
		var kk, ky float64
		up, yUp := mean[i+1:], yf[i+1:]
		for j, v := range row[1:] {
			c := v - mi - up[j] + total
			kk += c * c
			ky += c * yUp[j]
		}
		kkOff += kk
		kyOff += yf[i] * ky
	}
	kk := kkDiag + 2*kkOff
	if kk <= 0 {
		return 0
	}
	return (kyDiag + 2*kyOff) / (math.Sqrt(kk) * fn)
}

// combineRow writes dst[j] = Σ_b w·blocks[b][off+j] for j < len(dst),
// accumulating in block order from zero. Up to three blocks are combined
// per entry in registers; further blocks add into dst one at a time.
func combineRow[T float32 | float64](dst []float64, blocks [][]T, off int, w float64) {
	m := len(dst)
	switch len(blocks) {
	case 1:
		g0 := blocks[0][off : off+m]
		for j := range dst {
			dst[j] = 0 + w*float64(g0[j])
		}
		return
	case 2:
		g0, g1 := blocks[0][off:off+m], blocks[1][off:off+m]
		for j := range dst {
			dst[j] = 0 + w*float64(g0[j]) + w*float64(g1[j])
		}
		return
	}
	g0, g1, g2 := blocks[0][off:off+m], blocks[1][off:off+m], blocks[2][off:off+m]
	for j := range dst {
		dst[j] = 0 + w*float64(g0[j]) + w*float64(g1[j]) + w*float64(g2[j])
	}
	for b := 3; b < len(blocks); b++ {
		g := blocks[b][off : off+m]
		for j := range dst {
			dst[j] += w * float64(g[j])
		}
	}
}
