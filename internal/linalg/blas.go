// Dense level-3 building blocks for the vectorized Gram engine: symmetric
// rank-k products, rectangular A·Bᵀ products, pairwise squared distances via
// the ‖x‖² + ‖y‖² − 2⟨x,y⟩ expansion, and contiguous column-block
// extraction. All routines write into caller-supplied matrices so hot paths
// (candidate scoring in a lattice search) reuse scratch instead of
// allocating per call.
//
// Determinism contract: inner products accumulate left-to-right in feature
// order — exactly the order a scalar per-pair kernel evaluation uses — so
// SyrkInto and GemmNTInto are bit-identical to pairwise dot products. The
// distance expansion in PairwiseSquaredDistancesInto reorders floating-point
// operations relative to a direct Σ(xᵢ−yᵢ)² loop and is therefore only
// accurate to rounding (callers that need the exact scalar result must use
// the pairwise path).
package linalg

import "fmt"

// Reshape returns m resized to r×c, reusing m's backing storage whenever its
// capacity suffices — so hot paths whose working shapes alternate (e.g.
// CV folds of size n/k and n/k+1) settle on one allocation instead of
// reallocating every call. A fresh matrix is returned when m is nil or its
// capacity is short. The contents after a reshape are unspecified; callers
// must overwrite every entry they read.
//
//iotml:hotpath
func Reshape(m *Matrix, r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	if m == nil {
		return NewMatrix(r, c)
	}
	if m.Rows == r && m.Cols == c {
		return m
	}
	if cap(m.Data) < r*c {
		return NewMatrix(r, c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
	return m
}

// Run is a maximal contiguous index run [Start, Start+Len) — the gather
// descriptor GatherInto consumes: one Run is one copy() instead of Len
// scalar loads.
type Run struct {
	Start, Len int
}

// RunsOf compresses an index list into contiguous ascending runs, preserving
// order: {4, 5, 6, 2, 9, 10} becomes [{4,3}, {2,1}, {9,2}]. Computed once
// per index set (e.g. per CV fold) and replayed on every gather.
func RunsOf(idx []int) []Run {
	if len(idx) == 0 {
		return nil
	}
	runs := make([]Run, 0, len(idx))
	cur := Run{Start: idx[0], Len: 1}
	for _, v := range idx[1:] {
		if v == cur.Start+cur.Len {
			cur.Len++
			continue
		}
		runs = append(runs, cur)
		cur = Run{Start: v, Len: 1}
	}
	return append(runs, cur)
}

// GatherInto extracts the submatrix src[rows[i]][cols...] into dst
// (reshaped via Reshape, so scratch is retained across gathers of
// alternating shapes) and returns it. The column selection is described by
// contiguous runs (see RunsOf), so each run of each row is a single copy()
// over the row-major backing array instead of per-element At/Set — the fold
// sub- and cross-Gram extraction of the CV fast path. Values are read and
// written verbatim: the gathered entries are bit-identical to a scalar
// gather of the same indices.
//
//iotml:hotpath
func GatherInto(dst, src *Matrix, rows []int, cols []Run) *Matrix {
	nc := 0
	for _, r := range cols {
		nc += r.Len
	}
	dst = Reshape(dst, len(rows), nc)
	for i, r := range rows {
		srcRow := src.Data[r*src.Cols : (r+1)*src.Cols]
		dstRow := dst.Data[i*nc : (i+1)*nc]
		pos := 0
		for _, run := range cols {
			if run.Len == 1 {
				// Shuffled index sets compress mostly to singleton runs;
				// a direct store skips the memmove call overhead.
				dstRow[pos] = srcRow[run.Start]
				pos++
				continue
			}
			copy(dstRow[pos:pos+run.Len], srcRow[run.Start:run.Start+run.Len])
			pos += run.Len
		}
	}
	return dst
}

// SyrkInto computes the symmetric rank-k product X·Xᵀ (dst[i][j] =
// ⟨row i, row j⟩), writing into dst (reallocated if nil or mis-sized) and
// returning it. Only the upper triangle is computed; the lower is mirrored,
// matching the symmetric fill of a pairwise Gram loop.
func SyrkInto(dst, x *Matrix) *Matrix {
	n, d := x.Rows, x.Cols
	dst = Reshape(dst, n, n)
	for i := 0; i < n; i++ {
		ri := x.Data[i*d : (i+1)*d]
		for j := i; j < n; j++ {
			rj := x.Data[j*d : (j+1)*d]
			s := 0.0
			for k, v := range ri {
				s += v * rj[k]
			}
			dst.Data[i*n+j] = s
			dst.Data[j*n+i] = s
		}
	}
	return dst
}

// GemmNTInto computes the rectangular product A·Bᵀ (dst[i][j] =
// ⟨A row i, B row j⟩), writing into dst (reallocated if nil or mis-sized)
// and returning it. It panics if the inner dimensions differ.
func GemmNTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: GemmNT inner dimension mismatch %d vs %d", a.Cols, b.Cols))
	}
	d := a.Cols
	dst = Reshape(dst, a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ri := a.Data[i*d : (i+1)*d]
		for j := 0; j < b.Rows; j++ {
			rj := b.Data[j*d : (j+1)*d]
			s := 0.0
			for k, v := range ri {
				s += v * rj[k]
			}
			dst.Data[i*dst.Cols+j] = s
		}
	}
	return dst
}

// RowSquaredNorms writes ‖row i‖² into out (reallocated if mis-sized) and
// returns it.
func RowSquaredNorms(out []float64, x *Matrix) []float64 {
	if len(out) != x.Rows {
		out = make([]float64, x.Rows)
	}
	d := x.Cols
	for i := 0; i < x.Rows; i++ {
		s := 0.0
		for _, v := range x.Data[i*d : (i+1)*d] {
			s += v * v
		}
		out[i] = s
	}
	return out
}

// PairwiseSquaredDistancesInto computes ‖xᵢ − xⱼ‖² for all row pairs via the
// expansion ‖xᵢ‖² + ‖xⱼ‖² − 2⟨xᵢ,xⱼ⟩, writing into dst (reallocated if nil
// or mis-sized) and returning it. Cancellation residue is clamped at zero
// and the diagonal is exactly zero; off-diagonal entries agree with the
// direct Σ(xᵢ−yᵢ)² loop to rounding only (see the package determinism
// contract).
func PairwiseSquaredDistancesInto(dst, x *Matrix) *Matrix {
	n := x.Rows
	dst = SyrkInto(dst, x)
	norms := make([]float64, n)
	for i := 0; i < n; i++ {
		norms[i] = dst.Data[i*n+i]
	}
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			v := norms[i] + norms[j] - 2*dst.Data[i*n+j]
			if v < 0 {
				v = 0
			}
			dst.Data[i*n+j] = v
			dst.Data[j*n+i] = v
		}
	}
	return dst
}

// mirrorBand is the number of source rows MirrorUpper transposes at a
// time: each destination row then receives one contiguous run of at most
// mirrorBand entries (one or two cache lines), while the band's source
// lines stay cache-resident across consecutive destination rows.
const mirrorBand = 16

// MirrorUpper copies the strict upper triangle of the n×n row-major matrix
// in data into its lower triangle (data[j*n+i] = data[i*n+j] for j > i),
// one band of source rows at a time, so neither side of the transpose
// touches a new cache line per entry.
func MirrorUpper[T float32 | float64](data []T, n int) {
	for ib := 0; ib < n; ib += mirrorBand {
		iEnd := min(ib+mirrorBand, n)
		for j := ib + 1; j < n; j++ {
			dst := data[j*n+ib : j*n+min(j, iEnd)]
			for k := range dst {
				dst[k] = data[(ib+k)*n+j]
			}
		}
	}
}

// CrossSquaredDistancesInto computes ‖aᵢ − bⱼ‖² for all row pairs of two
// matrices via the same expansion as PairwiseSquaredDistancesInto, writing
// into dst (reallocated if nil or mis-sized) and returning it.
func CrossSquaredDistancesInto(dst, a, b *Matrix) *Matrix {
	dst = GemmNTInto(dst, a, b)
	na := RowSquaredNorms(nil, a)
	nb := RowSquaredNorms(nil, b)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			v := na[i] + nb[j] - 2*dst.Data[i*dst.Cols+j]
			if v < 0 {
				v = 0
			}
			dst.Data[i*dst.Cols+j] = v
		}
	}
	return dst
}

// ExtractColumns returns the contiguous n×len(cols) submatrix of the given
// column indices (0-based), materializing a column block once so downstream
// dense kernels stream it row-major instead of gathering per pair.
func ExtractColumns(x *Matrix, cols []int) *Matrix {
	out := NewMatrix(x.Rows, len(cols))
	for i := 0; i < x.Rows; i++ {
		src := x.Data[i*x.Cols : (i+1)*x.Cols]
		dstRow := out.Data[i*len(cols) : (i+1)*len(cols)]
		for k, c := range cols {
			dstRow[k] = src[c]
		}
	}
	return out
}

// FromRowsCols builds the contiguous n×len(cols) matrix of the given
// column indices (0-based) of row-slice data — ExtractColumns for datasets
// stored as [][]float64.
func FromRowsCols(rows [][]float64, cols []int) *Matrix {
	out := NewMatrix(len(rows), len(cols))
	for i, r := range rows {
		dstRow := out.Data[i*len(cols) : (i+1)*len(cols)]
		for k, c := range cols {
			dstRow[k] = r[c]
		}
	}
	return out
}
