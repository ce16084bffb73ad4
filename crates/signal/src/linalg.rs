//! Small dense complex linear algebra backing the joint least-squares fit in
//! [`crate::anc`].
//!
//! Systems are tiny (`k ≤ λ ≤ ~5` unknowns — one complex gain per known
//! collision component), so a straightforward Gaussian elimination with
//! partial pivoting is both adequate and dependency-free.

use crate::complex::Complex;
use core::fmt;

/// Error returned when a linear system cannot be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is (numerically) singular — e.g. two known components with
    /// identical reference waveforms.
    Singular,
    /// Matrix/vector dimensions do not form a square system.
    DimensionMismatch {
        /// Number of rows supplied.
        rows: usize,
        /// Number of columns supplied.
        cols: usize,
        /// Right-hand-side length supplied.
        rhs: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular"),
            SolveError::DimensionMismatch { rows, cols, rhs } => write!(
                f,
                "dimension mismatch: {rows}x{cols} matrix with rhs of length {rhs}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves the dense complex system `A·x = b` in place via Gaussian
/// elimination with partial pivoting.
///
/// `a` is row-major, `n×n`; `b` has length `n`.
///
/// # Errors
///
/// Returns [`SolveError::DimensionMismatch`] for non-square input and
/// [`SolveError::Singular`] when a pivot underflows.
pub fn solve(a: &[Vec<Complex>], b: &[Complex]) -> Result<Vec<Complex>, SolveError> {
    let n = a.len();
    if b.len() != n || a.iter().any(|row| row.len() != n) {
        return Err(SolveError::DimensionMismatch {
            rows: n,
            cols: a.first().map_or(0, Vec::len),
            rhs: b.len(),
        });
    }
    if n == 0 {
        return Ok(Vec::new());
    }

    // Augmented working copy.
    let mut m: Vec<Vec<Complex>> = a.to_vec();
    let mut rhs = b.to_vec();

    // Scale-invariant singularity threshold.
    let max_abs = m
        .iter()
        .flat_map(|row| row.iter())
        .map(|c| c.norm())
        .fold(0.0f64, f64::max);
    let eps = f64::EPSILON * (n as f64) * max_abs.max(1.0);

    for col in 0..n {
        // Partial pivot. NaN norms (from NaN/inf samples upstream) are
        // treated as unusable pivots, so such systems report Singular
        // instead of panicking.
        let mut pivot_row = col;
        let mut pivot_norm = f64::NEG_INFINITY;
        for (offset, row) in m.iter().enumerate().skip(col) {
            let norm = row[col].norm();
            if norm > pivot_norm {
                pivot_norm = norm;
                pivot_row = offset;
            }
        }
        // NaN norms never satisfy `> eps`, so they fall through to
        // Singular here rather than panicking in a comparator.
        if pivot_norm.is_nan() || pivot_norm <= eps {
            return Err(SolveError::Singular);
        }
        m.swap(col, pivot_row);
        rhs.swap(col, pivot_row);

        let pivot = m[col][col];
        for row in (col + 1)..n {
            let factor = m[row][col] / pivot;
            if factor == Complex::ZERO {
                continue;
            }
            let (pivot_rows, target_rows) = m.split_at_mut(row);
            let pivot_row_values = &pivot_rows[col];
            for (target, &pivot_value) in target_rows[0][col..n]
                .iter_mut()
                .zip(&pivot_row_values[col..n])
            {
                *target -= factor * pivot_value;
            }
            let delta = factor * rhs[col];
            rhs[row] -= delta;
        }
    }

    // Back substitution.
    let mut x = vec![Complex::ZERO; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for k in (row + 1)..n {
            acc -= m[row][k] * x[k];
        }
        x[row] = acc / m[row][row];
    }
    Ok(x)
}

/// Solves the least-squares problem `min ‖y − Σ_j x_j·s_j‖²` for complex
/// gains `x`, where `basis[j]` are the reference waveforms `s_j`.
///
/// Forms the normal equations `(SᴴS)·x = Sᴴy` and solves them with
/// [`solve`]. With `k ≤ 5` components and hundreds of samples this is
/// numerically benign.
///
/// # Errors
///
/// Returns [`SolveError::Singular`] when two basis waveforms coincide (the
/// Gram matrix is then rank-deficient) and [`SolveError::DimensionMismatch`]
/// when basis waveform lengths differ from `y`.
pub fn least_squares_gains(
    basis: &[Vec<Complex>],
    y: &[Complex],
) -> Result<Vec<Complex>, SolveError> {
    let k = basis.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    if basis.iter().any(|s| s.len() != y.len()) {
        return Err(SolveError::DimensionMismatch {
            rows: k,
            cols: basis.iter().map(Vec::len).max().unwrap_or(0),
            rhs: y.len(),
        });
    }
    let mut gram = vec![vec![Complex::ZERO; k]; k];
    let mut proj = vec![Complex::ZERO; k];
    for i in 0..k {
        for j in 0..k {
            gram[i][j] = crate::complex::inner_product(&basis[j], &basis[i]);
        }
        proj[i] = crate::complex::inner_product(y, &basis[i]);
    }
    solve(&gram, &proj)
}

/// Reusable working memory for [`least_squares_gains_by`]: the `k×k`
/// Gram matrix (row-major flat) and the projection vector. Systems are
/// tiny, so this exists purely to keep the per-attempt hot path
/// allocation-free, not to save space.
#[derive(Debug, Default)]
pub struct LsScratch {
    gram: Vec<Complex>,
    proj: Vec<Complex>,
}

/// Allocation-free [`least_squares_gains`] with the basis supplied by an
/// indexing closure — lets callers fit against spans of a contiguous arena
/// (e.g. the reference cache) without materializing a slice-of-slices.
/// Writes the fitted gains into `gains` (cleared first), reusing
/// `scratch`'s capacity. Forms the identical Gram/projection inner products
/// in the identical order and runs the identical elimination sequence as
/// the allocating variant, so the gains are bit-identical.
///
/// `self_inner(j)` must return `inner_product(basis(j), basis(j))`: it
/// fills the Gram diagonal, so a caller that already holds each basis
/// waveform's self inner product (the reference cache computes it once
/// per insert) skips recomputing it on every fit. Only the diagonal is
/// taken from it; off-diagonal entries are each formed from their own
/// inner product, never mirrored by conjugation, which could flip the
/// sign of a zero.
///
/// # Errors
///
/// Same contract as [`least_squares_gains`].
pub fn least_squares_gains_by<'a, F, D>(
    k: usize,
    basis: F,
    self_inner: D,
    y: &[Complex],
    scratch: &mut LsScratch,
    gains: &mut Vec<Complex>,
) -> Result<(), SolveError>
where
    F: Fn(usize) -> &'a [Complex],
    D: Fn(usize) -> Complex,
{
    gains.clear();
    if k == 0 {
        return Ok(());
    }
    if (0..k).any(|j| basis(j).len() != y.len()) {
        return Err(SolveError::DimensionMismatch {
            rows: k,
            cols: (0..k).map(|j| basis(j).len()).max().unwrap_or(0),
            rhs: y.len(),
        });
    }
    scratch.gram.clear();
    scratch.gram.resize(k * k, Complex::ZERO);
    scratch.proj.clear();
    scratch.proj.resize(k, Complex::ZERO);
    for i in 0..k {
        for j in 0..k {
            scratch.gram[i * k + j] = if i == j {
                self_inner(i)
            } else {
                crate::complex::inner_product(basis(j), basis(i))
            };
        }
        scratch.proj[i] = crate::complex::inner_product(y, basis(i));
    }
    solve_flat_in_place(&mut scratch.gram, k, &mut scratch.proj, gains)
}

/// [`solve`] over a row-major flat `n×n` matrix, consuming `m`/`rhs` as
/// working storage and writing the solution into `x` (cleared first).
///
/// Performs the same pivot selection, row operations, and back
/// substitution in the same order as [`solve`], so the two produce
/// bit-identical solutions; a test pins this equivalence.
///
/// # Errors
///
/// [`SolveError::Singular`] when a pivot underflows (including NaN).
///
/// # Panics
///
/// Panics (debug assertion) when `m.len() != n*n` or `rhs.len() != n`.
pub fn solve_flat_in_place(
    m: &mut [Complex],
    n: usize,
    rhs: &mut [Complex],
    x: &mut Vec<Complex>,
) -> Result<(), SolveError> {
    debug_assert_eq!(m.len(), n * n);
    debug_assert_eq!(rhs.len(), n);
    x.clear();
    if n == 0 {
        return Ok(());
    }

    // Scale-invariant singularity threshold (same row-major scan order as
    // the nested-`Vec` variant).
    let max_abs = m.iter().map(|c| c.norm()).fold(0.0f64, f64::max);
    let eps = f64::EPSILON * (n as f64) * max_abs.max(1.0);

    for col in 0..n {
        let mut pivot_row = col;
        let mut pivot_norm = f64::NEG_INFINITY;
        for row in col..n {
            let norm = m[row * n + col].norm();
            if norm > pivot_norm {
                pivot_norm = norm;
                pivot_row = row;
            }
        }
        if pivot_norm.is_nan() || pivot_norm <= eps {
            return Err(SolveError::Singular);
        }
        if pivot_row != col {
            for j in 0..n {
                m.swap(col * n + j, pivot_row * n + j);
            }
            rhs.swap(col, pivot_row);
        }

        let pivot = m[col * n + col];
        for row in (col + 1)..n {
            let factor = m[row * n + col] / pivot;
            if factor == Complex::ZERO {
                continue;
            }
            for j in col..n {
                let pivot_value = m[col * n + j];
                m[row * n + j] -= factor * pivot_value;
            }
            let delta = factor * rhs[col];
            rhs[row] -= delta;
        }
    }

    x.resize(n, Complex::ZERO);
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for k in (row + 1)..n {
            acc -= m[row * n + k] * x[k];
        }
        x[row] = acc / m[row * n + row];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn solve_identity() {
        let a = vec![
            vec![Complex::ONE, Complex::ZERO],
            vec![Complex::ZERO, Complex::ONE],
        ];
        let b = vec![c(3.0, 1.0), c(-2.0, 0.5)];
        assert_eq!(solve(&a, &b).unwrap(), b);
    }

    #[test]
    fn solve_2x2_complex() {
        // A = [[1, i], [i, 1]], x = [1, 2i] → b = [1 + 2i·i, i + 2i] = [-1, 3i]
        let a = vec![
            vec![Complex::ONE, Complex::I],
            vec![Complex::I, Complex::ONE],
        ];
        let b = vec![c(-1.0, 0.0), c(0.0, 3.0)];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - Complex::ONE).norm() < 1e-10);
        assert!((x[1] - c(0.0, 2.0)).norm() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = vec![
            vec![Complex::ZERO, Complex::ONE],
            vec![Complex::ONE, Complex::ZERO],
        ];
        let b = vec![c(5.0, 0.0), c(7.0, 0.0)];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - c(7.0, 0.0)).norm() < 1e-12);
        assert!((x[1] - c(5.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = vec![
            vec![Complex::ONE, Complex::ONE],
            vec![Complex::ONE, Complex::ONE],
        ];
        let b = vec![Complex::ONE, Complex::ONE];
        assert_eq!(solve(&a, &b), Err(SolveError::Singular));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = vec![vec![Complex::ONE, Complex::ONE]];
        let b = vec![Complex::ONE];
        assert!(matches!(
            solve(&a, &b),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_system() {
        assert_eq!(solve(&[], &[]).unwrap(), Vec::new());
        assert_eq!(least_squares_gains(&[], &[]).unwrap(), Vec::new());
    }

    #[test]
    fn least_squares_recovers_exact_mixture() {
        // Two random-ish orthogonal-ish basis signals, exact mixture.
        let s1: Vec<Complex> = (0..64).map(|n| Complex::cis(0.3 * n as f64)).collect();
        let s2: Vec<Complex> = (0..64)
            .map(|n| Complex::cis(-0.7 * n as f64 + 1.0))
            .collect();
        let g1 = c(0.8, -0.2);
        let g2 = c(-0.3, 0.5);
        let y: Vec<Complex> = s1.iter().zip(&s2).map(|(&a, &b)| a * g1 + b * g2).collect();
        let gains = least_squares_gains(&[s1, s2], &y).unwrap();
        assert!((gains[0] - g1).norm() < 1e-9);
        assert!((gains[1] - g2).norm() < 1e-9);
    }

    #[test]
    fn least_squares_duplicate_basis_singular() {
        let s: Vec<Complex> = (0..16).map(|n| Complex::cis(0.1 * n as f64)).collect();
        let y = s.clone();
        assert_eq!(
            least_squares_gains(&[s.clone(), s], &y),
            Err(SolveError::Singular)
        );
    }

    #[test]
    fn nan_input_is_singular_not_panic() {
        let nan = Complex::new(f64::NAN, 0.0);
        let a = vec![vec![nan, Complex::ONE], vec![Complex::ONE, Complex::ZERO]];
        let b = vec![Complex::ONE, Complex::ONE];
        // Must return an error, never panic (documented contract).
        assert!(solve(&a, &b).is_err());
        let basis = vec![vec![nan; 4], vec![Complex::ONE; 4]];
        assert!(least_squares_gains(&basis, &[Complex::ONE; 4]).is_err());
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!SolveError::Singular.to_string().is_empty());
    }

    #[test]
    fn flat_least_squares_is_bit_identical_to_nested() {
        // The scratch-based flat path must reproduce the nested-Vec path
        // bit for bit — the golden-report suite depends on it.
        let s1: Vec<Complex> = (0..97).map(|n| Complex::cis(0.31 * n as f64)).collect();
        let s2: Vec<Complex> = (0..97)
            .map(|n| Complex::cis(-0.57 * n as f64 + 0.4))
            .collect();
        let s3: Vec<Complex> = (0..97)
            .map(|n| Complex::new(0.2 * (n as f64).sin(), (0.11 * n as f64).cos()))
            .collect();
        let y: Vec<Complex> = (0..97)
            .map(|n| Complex::new((0.9 * n as f64).cos(), 0.3 - 0.01 * n as f64))
            .collect();
        for k in 0..=3usize {
            let owned: Vec<Vec<Complex>> = [s1.clone(), s2.clone(), s3.clone()][..k].to_vec();
            let nested = least_squares_gains(&owned, &y);
            let views: Vec<&[Complex]> = owned.iter().map(Vec::as_slice).collect();
            let mut scratch = LsScratch::default();
            let mut gains = Vec::new();
            let flat = least_squares_gains_by(
                k,
                |j| views[j],
                |j| crate::complex::inner_product(views[j], views[j]),
                &y,
                &mut scratch,
                &mut gains,
            );
            match (nested, flat) {
                (Ok(expect), Ok(())) => {
                    assert_eq!(expect.len(), gains.len());
                    for (a, b) in expect.iter().zip(&gains) {
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "k={k}");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "k={k}");
                    }
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                (a, b) => panic!("paths diverged for k={k}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn flat_solve_matches_nested_with_pivoting() {
        // Force a row swap and a zero factor to cover every branch.
        let a = vec![
            vec![Complex::ZERO, Complex::ONE, c(0.5, 0.0)],
            vec![Complex::ONE, c(2.0, 1.0), Complex::ZERO],
            vec![c(0.0, 1.0), Complex::ZERO, c(1.0, -1.0)],
        ];
        let b = vec![c(1.0, 2.0), c(-0.5, 0.3), c(2.0, 0.0)];
        let expect = solve(&a, &b).unwrap();
        let mut flat: Vec<Complex> = a.iter().flatten().copied().collect();
        let mut rhs = b.clone();
        let mut x = Vec::new();
        solve_flat_in_place(&mut flat, 3, &mut rhs, &mut x).unwrap();
        for (e, g) in expect.iter().zip(&x) {
            assert_eq!(e.re.to_bits(), g.re.to_bits());
            assert_eq!(e.im.to_bits(), g.im.to_bits());
        }
    }

    proptest! {
        #[test]
        fn prop_solve_then_multiply_roundtrip(
            entries in proptest::collection::vec(-5.0f64..5.0, 12),
        ) {
            // Build a 3x3 from the entries (re only, plus i on the diagonal
            // to keep it comfortably nonsingular) and verify A·x ≈ b.
            let mut a = vec![vec![Complex::ZERO; 3]; 3];
            for i in 0..3 {
                for j in 0..3 {
                    a[i][j] = c(entries[i * 3 + j], if i == j { 3.0 } else { 0.0 });
                }
            }
            let b = vec![c(entries[9], 1.0), c(entries[10], -1.0), c(entries[11], 0.0)];
            let x = solve(&a, &b).unwrap();
            for i in 0..3 {
                let mut acc = Complex::ZERO;
                for j in 0..3 {
                    acc += a[i][j] * x[j];
                }
                prop_assert!((acc - b[i]).norm() < 1e-8);
            }
        }
    }
}
