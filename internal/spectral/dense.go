package spectral

import (
	"fmt"
	"math"

	"detlb/internal/graph"
)

// Dense is an explicit n×n row-major matrix. The proofs of Section 2 argue
// about powers of the transition matrix P and the error terms Λ_t = P^t − P∞;
// Dense provides exactly the operations needed to validate those ingredients
// numerically on small graphs (Lemma A.1, and the probability-current bound
// Σ_v |P^{a+1}(w,v) − P^a(w,v)| < 24/√a used in Theorem 2.3(i)).
type Dense struct {
	N    int
	Data []float64
}

// NewDense allocates an n×n zero matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// At returns M[i][j].
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns M[i][j].
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.N)
	copy(c.Data, m.Data)
	return c
}

// DenseTransition materializes the transition matrix P of the balancing
// graph. Only intended for small n (the analysis-validation tests); the
// simulation paths use the matrix-free Operator.
func DenseTransition(b *graph.Balancing) *Dense {
	return denseTransition(b, nil)
}

// denseTransition materializes P, or with a non-nil per-arc alive mask the
// faulted P' of FaultedGap: a dead arc adds 1/d⁺ to the diagonal instead of
// to its head's column.
func denseTransition(b *graph.Balancing, alive []bool) *Dense {
	n := b.N()
	m := NewDense(n)
	dplus := float64(b.DegreePlus())
	heads, d := b.Graph().Heads(), b.Degree()
	for u := 0; u < n; u++ {
		m.Set(u, u, float64(b.SelfLoops())/dplus)
		for p := u * d; p < (u+1)*d; p++ {
			v := int(heads[p])
			if alive != nil && !alive[p] {
				v = u
			}
			m.Set(u, v, m.At(u, v)+1/dplus)
		}
	}
	return m
}

// Mul returns m·o.
func (m *Dense) Mul(o *Dense) *Dense {
	if m.N != o.N {
		panic(fmt.Sprintf("spectral: dimension mismatch %d vs %d", m.N, o.N))
	}
	n := m.N
	out := NewDense(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			row := o.Data[k*n : (k+1)*n]
			outRow := out.Data[i*n : (i+1)*n]
			for j, v := range row {
				outRow[j] += a * v
			}
		}
	}
	return out
}

// Pow returns m^k (k ≥ 0) by binary exponentiation; m^0 is the identity.
func (m *Dense) Pow(k int) *Dense {
	if k < 0 {
		panic("spectral: negative matrix power")
	}
	n := m.N
	result := NewDense(n)
	for i := 0; i < n; i++ {
		result.Set(i, i, 1)
	}
	base := m.Clone()
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	return result
}

// Stationary returns P∞ for a doubly stochastic P on n nodes: the constant
// 1/n matrix (regular graphs have the uniform stationary distribution).
func Stationary(n int) *Dense {
	m := NewDense(n)
	v := 1 / float64(n)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// ErrorTerm returns Λ_t = P^t − P∞ for the balancing graph.
func ErrorTerm(b *graph.Balancing, t int) *Dense {
	p := DenseTransition(b).Pow(t)
	inf := Stationary(b.N())
	out := NewDense(b.N())
	for i := range out.Data {
		out.Data[i] = p.Data[i] - inf.Data[i]
	}
	return out
}

// MaxAbsRowSum returns ‖M‖∞ = max_i Σ_j |M[i][j]| — the operator norm the
// proofs bound Λ_t with.
func (m *Dense) MaxAbsRowSum() float64 {
	best := 0.0
	for i := 0; i < m.N; i++ {
		sum := 0.0
		for j := 0; j < m.N; j++ {
			sum += math.Abs(m.At(i, j))
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// ProbabilityCurrent returns max_w Σ_v |P^{a+1}(w,v) − P^a(w,v)|, the
// quantity bound (8) in the proof of Theorem 2.3 controls: for lazy chains
// (P(u,u) ≥ 1/2) it is < 24/√a by the [14]-style argument, and summing it
// over a gives the √(log n/µ) discrepancy.
func ProbabilityCurrent(b *graph.Balancing, a int) float64 {
	p := DenseTransition(b)
	pa := p.Pow(a)
	pa1 := pa.Mul(p)
	best := 0.0
	for w := 0; w < b.N(); w++ {
		sum := 0.0
		for v := 0; v < b.N(); v++ {
			sum += math.Abs(pa1.At(w, v) - pa.At(w, v))
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// SpectrumDense returns all eigenvalues of the (symmetric) transition matrix
// of the balancing graph, in descending order, via the Jacobi rotation
// method. Regular graphs give symmetric P, so the spectrum is real. O(n³)
// per sweep; for the small n used in analysis validation only.
func SpectrumDense(b *graph.Balancing) []float64 {
	return symmetricSpectrum(DenseTransition(b))
}

// symmetricSpectrum returns the eigenvalues of the symmetric matrix a in
// descending order by Jacobi rotations, overwriting a.
func symmetricSpectrum(a *Dense) []float64 {
	n := a.N
	// Symmetrize defensively against float noise (P is symmetric in exact
	// arithmetic for regular graphs).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	const (
		maxSweeps = 100
		tol       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off < tol {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = a.At(i, i)
	}
	// Descending order.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if eig[j] > eig[i] {
				eig[i], eig[j] = eig[j], eig[i]
			}
		}
	}
	return eig
}
