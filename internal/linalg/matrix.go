// Package linalg provides the small dense linear-algebra kernel used by the
// Gaussian-process emulator and the Bayesian calibration framework: dense
// matrices, Cholesky factorization, triangular solves, and a symmetric
// eigensolver used for the PCA basis representation of simulator output
// (Appendix E of the paper, eq. 3).
//
// The matrices involved are small (design sizes of at most a few hundred
// points, output bases of pη = 5), so clarity is preferred over blocking or
// vectorization tricks.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m × b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul shape mismatch %dx%d × %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Add(i, j, a*b.At(k, j))
			}
		}
	}
	return out
}

// MulVec returns m × v as a new slice.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: mulvec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Dot returns the inner product of two vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite matrix. It returns an error if the matrix is
// not positive definite (within a small tolerance); callers typically add a
// nugget to the diagonal and retry.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := CholeskyInto(a, l); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto factors A into the caller-provided lower-triangular L (same
// shape, must not alias A). Only L's lower triangle including the diagonal
// is written; stale upper-triangle entries of a reused L are ignored by the
// triangular solves and LogDetCholesky.
func CholeskyInto(a, l *Matrix) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		return fmt.Errorf("linalg: cholesky shape mismatch %dx%d into %dx%d", a.Rows, a.Cols, l.Rows, l.Cols)
	}
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/dj)
		}
	}
	return nil
}

// SolveCholesky solves A x = b given the lower Cholesky factor L of A.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	y := ForwardSolve(l, b)
	return BackSolveT(l, y)
}

// ForwardSolve solves L y = b for lower-triangular L.
func ForwardSolve(l *Matrix, b []float64) []float64 {
	y := make([]float64, l.Rows)
	ForwardSolveInto(l, b, y)
	return y
}

// ForwardSolveInto solves L y = b into caller-provided y (b and y may
// alias), for hot loops that cannot afford per-solve allocations.
func ForwardSolveInto(l *Matrix, b, y []float64) {
	n := l.Rows
	if len(b) != n || len(y) != n {
		panic("linalg: forward solve length mismatch")
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*l.Cols : i*l.Cols+i]
		for k, v := range row {
			s -= v * y[k]
		}
		y[i] = s / l.At(i, i)
	}
}

// BackSolveT solves Lᵀ x = y for lower-triangular L.
func BackSolveT(l *Matrix, y []float64) []float64 {
	x := make([]float64, l.Rows)
	BackSolveTInto(l, y, x)
	return x
}

// BackSolveTInto solves Lᵀ x = y into caller-provided x (x and y may alias).
func BackSolveTInto(l *Matrix, y, x []float64) {
	n := l.Rows
	if len(y) != n || len(x) != n {
		panic("linalg: back solve length mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// LogDetCholesky returns log det A given the lower Cholesky factor of A.
func LogDetCholesky(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// SymEigen computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns the eigenvalues in descending order and
// the matching eigenvectors as the columns of V.
func SymEigen(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: eigen of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	w := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply the rotation to W on both sides and accumulate in V.
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue (selection sort on columns).
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[j] > vals[best] {
				best = j
			}
		}
		if best != i {
			vals[i], vals[best] = vals[best], vals[i]
			for k := 0; k < n; k++ {
				vi := v.At(k, i)
				v.Set(k, i, v.At(k, best))
				v.Set(k, best, vi)
			}
		}
	}
	return vals, v, nil
}

// PCA computes the top-k principal components of the rows of X (observations
// in rows, variables in columns). It returns the column means, the basis as
// a (cols × k) matrix whose columns are the components scaled by the square
// root of their eigenvalues (the convention GPMSA uses, so basis weights are
// O(1)), and the fraction of variance captured.
func PCA(x *Matrix, k int) (mean []float64, basis *Matrix, explained float64, err error) {
	n, p := x.Rows, x.Cols
	if n == 0 || p == 0 {
		return nil, nil, 0, fmt.Errorf("linalg: PCA of empty matrix")
	}
	if k > p {
		k = p
	}
	if k > n {
		k = n
	}
	mean = make([]float64, p)
	for j := 0; j < p; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x.At(i, j)
		}
		mean[j] = s / float64(n)
	}
	centered := NewMatrix(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			centered.Set(i, j, x.At(i, j)-mean[j])
		}
	}
	// Covariance (p × p); for long outputs p can exceed n, in which case we
	// work in the n × n Gram space to keep the eigenproblem small.
	if p <= n {
		cov := centered.T().Mul(centered).Scale(1 / float64(maxInt(1, n-1)))
		vals, vecs, eerr := SymEigen(cov)
		if eerr != nil {
			return nil, nil, 0, eerr
		}
		return pcaAssemble(mean, vals, vecs, p, k)
	}
	gram := centered.Mul(centered.T()).Scale(1 / float64(maxInt(1, n-1)))
	vals, u, eerr := SymEigen(gram)
	if eerr != nil {
		return nil, nil, 0, eerr
	}
	// Convert Gram eigenvectors u_i to covariance eigenvectors
	// v_i = Xᵀ u_i / sqrt((n-1) λ_i).
	vecs := NewMatrix(p, len(vals))
	for c := 0; c < len(vals); c++ {
		if vals[c] <= 1e-14 {
			continue
		}
		ucol := u.Col(c)
		vcol := centered.T().MulVec(ucol)
		scale := 1 / (math.Sqrt(vals[c]) * math.Sqrt(float64(maxInt(1, n-1))))
		for i := 0; i < p; i++ {
			vecs.Set(i, c, vcol[i]*scale)
		}
	}
	return pcaAssemble(mean, vals, vecs, p, k)
}

func pcaAssemble(mean, vals []float64, vecs *Matrix, p, k int) ([]float64, *Matrix, float64, error) {
	total := 0.0
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	basis := NewMatrix(p, k)
	kept := 0.0
	for c := 0; c < k; c++ {
		lam := vals[c]
		if lam < 0 {
			lam = 0
		}
		kept += lam
		s := math.Sqrt(lam)
		for i := 0; i < p; i++ {
			basis.Set(i, c, vecs.At(i, c)*s)
		}
	}
	explained := 1.0
	if total > 0 {
		explained = kept / total
	}
	return mean, basis, explained, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
