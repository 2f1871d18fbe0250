package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from row slices. All rows must have equal length.
func fromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows (%d vs %d)", len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("set/at broken")
	}
	m.Add(0, 0, 2)
	if m.At(0, 0) != 3 {
		t.Fatal("add broken")
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 0) != 1 {
		t.Fatal("transpose values wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows accepted")
		}
	}()
	fromRows([][]float64{{1, 2}, {3}})
}

func TestMulIdentity(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	p := m.Mul(Identity(2))
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != m.At(i, j) {
				t.Fatal("identity mul changed matrix")
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Fatalf("mul wrong at %d,%d: %v", i, j, c.At(i, j))
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	v := a.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("mulvec %v", v)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("dot wrong")
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L L^T must equal A.
	back := l.Mul(l.T())
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !approxEq(back.At(i, j), a.At(i, j), 1e-12) {
				t.Fatalf("L L^T != A at %d,%d", i, j)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestSolveCholesky(t *testing.T) {
	a := fromRows([][]float64{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	x := SolveCholesky(l, b)
	for i := range x {
		if !approxEq(x[i], want[i], 1e-10) {
			t.Fatalf("solve wrong: %v want %v", x, want)
		}
	}
}

func TestLogDetCholesky(t *testing.T) {
	a := fromRows([][]float64{{2, 0}, {0, 8}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if ld := LogDetCholesky(l); !approxEq(ld, math.Log(16), 1e-12) {
		t.Fatalf("logdet %v want %v", ld, math.Log(16))
	}
}

func TestSymEigenKnown(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 2}}) // eigenvalues 3, 1
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(vals[0], 3, 1e-10) || !approxEq(vals[1], 1, 1e-10) {
		t.Fatalf("eigenvalues %v", vals)
	}
	// A v = λ v for each column.
	for c := 0; c < 2; c++ {
		v := vecs.Col(c)
		av := a.MulVec(v)
		for i := range v {
			if !approxEq(av[i], vals[c]*v[i], 1e-10) {
				t.Fatalf("eigenvector %d fails A v = λ v", c)
			}
		}
	}
}

func TestSymEigenRandomSPD(t *testing.T) {
	r := stats.NewRNG(77)
	n := 8
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = r.Norm()
	}
	a := b.Mul(b.T()) // SPD (almost surely PD)
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// Eigenvalues descending and non-negative.
	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1]+1e-9 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
	// Reconstruction: V diag(vals) V^T == A.
	d := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, vals[i])
	}
	back := vecs.Mul(d).Mul(vecs.T())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !approxEq(back.At(i, j), a.At(i, j), 1e-7*(1+math.Abs(a.At(i, j)))) {
				t.Fatalf("reconstruction fails at %d,%d: %v vs %v", i, j, back.At(i, j), a.At(i, j))
			}
		}
	}
	// Orthonormal columns.
	vtv := vecs.T().Mul(vecs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !approxEq(vtv.At(i, j), want, 1e-9) {
				t.Fatalf("V not orthonormal at %d,%d: %v", i, j, vtv.At(i, j))
			}
		}
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	r := stats.NewRNG(78)
	// Data along direction (1, 1)/sqrt(2) with small noise.
	n := 200
	x := NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		tt := r.Norm() * 5
		x.Set(i, 0, tt+r.Norm()*0.1)
		x.Set(i, 1, tt+r.Norm()*0.1)
	}
	_, basis, explained, err := PCA(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if explained < 0.99 {
		t.Fatalf("explained variance %v", explained)
	}
	// First basis direction should be proportional to (1,1).
	b0, b1 := basis.At(0, 0), basis.At(1, 0)
	if !approxEq(math.Abs(b0/b1), 1, 0.05) {
		t.Fatalf("dominant direction (%v, %v) not along (1,1)", b0, b1)
	}
}

func TestPCAGramPathWideMatrix(t *testing.T) {
	r := stats.NewRNG(79)
	// More columns than rows exercises the Gram-space branch.
	n, p := 10, 50
	x := NewMatrix(n, p)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	mean, basis, explained, err := PCA(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(mean) != p || basis.Rows != p || basis.Cols != 5 {
		t.Fatalf("shapes: mean %d basis %dx%d", len(mean), basis.Rows, basis.Cols)
	}
	if explained <= 0 || explained > 1+1e-9 {
		t.Fatalf("explained %v", explained)
	}
}

func TestPCAEmptyErrors(t *testing.T) {
	if _, _, _, err := PCA(NewMatrix(0, 0), 2); err == nil {
		t.Fatal("empty PCA accepted")
	}
}

func TestCholeskySolvePropertyRandomSPD(t *testing.T) {
	err := quick.Check(func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) + 1)
		n := r.Intn(6) + 2
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = r.Norm()
		}
		a := b.Mul(b.T())
		for i := 0; i < n; i++ {
			a.Add(i, i, 0.5) // ensure well-conditioned
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.Norm()
		}
		rhs := a.MulVec(want)
		x := SolveCholesky(l, rhs)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-7 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScale(t *testing.T) {
	a := fromRows([][]float64{{1, 2}})
	a.Scale(3)
	if a.At(0, 0) != 3 || a.At(0, 1) != 6 {
		t.Fatal("scale wrong")
	}
}

func TestColClone(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(0)
	if c[0] != 1 || c[1] != 3 {
		t.Fatal("col wrong")
	}
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("clone aliases original")
	}
}
