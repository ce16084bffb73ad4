//! Chunked elementwise DSP kernels for the data-oriented signal path.
//!
//! Waveforms are stored interleaved (`re, im` pairs — [`Complex`] is
//! `#[repr(C)]`) in contiguous buffers; the hot elementwise loops
//! below (mixture accumulation and gain-scaled subtraction) walk them in
//! explicit `chunks_exact(8)` blocks — eight complex samples, sixteen
//! `f64` lanes per block — which the compiler autovectorizes without any
//! SIMD dependency and without `unsafe` (the workspace forbids it).
//!
//! **Bit-identity contract:** every output element is produced by exactly
//! the same `f64` expression tree as the scalar loops these kernels
//! replace (`*acc += s`, `*r -= s * gain`), and elementwise operations
//! are order-independent across elements, so chunking cannot change a
//! single bit of the result. Reductions (inner products, mean power) are
//! *not* chunked anywhere in this crate: their summation order is part of
//! the golden-report contract.

use crate::complex::Complex;

/// Complex samples per vectorized block.
const CHUNK: usize = 8;

/// `acc[i] += src[i]` over the overlapping prefix (zip semantics).
pub fn accumulate(acc: &mut [Complex], src: &[Complex]) {
    let n = acc.len().min(src.len());
    let mut ac = acc[..n].chunks_exact_mut(CHUNK);
    let mut sc = src[..n].chunks_exact(CHUNK);
    for (ab, sb) in (&mut ac).zip(&mut sc) {
        for k in 0..CHUNK {
            ab[k] += sb[k];
        }
    }
    for (a, &s) in ac.into_remainder().iter_mut().zip(sc.remainder()) {
        *a += s;
    }
}

/// `acc[i] += src[i] * gain` over the overlapping prefix.
///
/// Each element computes `tmp = src[i] * gain; acc[i] += tmp` with the
/// complex-multiply expression of `Complex::mul`, matching the scalar
/// `apply_in_place`-then-accumulate sequence bit for bit.
pub fn accumulate_scaled(acc: &mut [Complex], src: &[Complex], gain: Complex) {
    let n = acc.len().min(src.len());
    let mut ac = acc[..n].chunks_exact_mut(CHUNK);
    let mut sc = src[..n].chunks_exact(CHUNK);
    for (ab, sb) in (&mut ac).zip(&mut sc) {
        for k in 0..CHUNK {
            ab[k] += sb[k] * gain;
        }
    }
    for (a, &s) in ac.into_remainder().iter_mut().zip(sc.remainder()) {
        *a += s * gain;
    }
}

/// `r[i] -= s[i] * gain` over the overlapping prefix — the ANC
/// subtraction inner loop.
pub fn sub_scaled(residual: &mut [Complex], wave: &[Complex], gain: Complex) {
    let n = residual.len().min(wave.len());
    let mut rc = residual[..n].chunks_exact_mut(CHUNK);
    let mut wc = wave[..n].chunks_exact(CHUNK);
    for (rb, wb) in (&mut rc).zip(&mut wc) {
        for k in 0..CHUNK {
            rb[k] -= wb[k] * gain;
        }
    }
    for (r, &s) in rc.into_remainder().iter_mut().zip(wc.remainder()) {
        *r -= s * gain;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, salt: f64) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64).sin() + salt, (i as f64 * 0.7).cos() - salt))
            .collect()
    }

    #[test]
    fn accumulate_matches_scalar_loop() {
        for n in [0, 1, 3, 7, 8, 9, 16, 769] {
            let src = wave(n, 0.1);
            let mut a = wave(n, -0.3);
            let mut b = a.clone();
            accumulate(&mut a, &src);
            for (acc, &s) in b.iter_mut().zip(src.iter()) {
                *acc += s;
            }
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn accumulate_scaled_matches_apply_then_accumulate() {
        let gain = Complex::new(0.37, -1.2);
        for n in [1, 4, 7, 8, 769] {
            let src = wave(n, 0.4);
            let mut a = wave(n, 0.9);
            let mut b = a.clone();
            accumulate_scaled(&mut a, &src, gain);
            // Scalar reference: channel-apply then accumulate.
            let mut shaped = src.clone();
            for s in shaped.iter_mut() {
                *s *= gain;
            }
            for (acc, &s) in b.iter_mut().zip(shaped.iter()) {
                *acc += s;
            }
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn sub_scaled_matches_scalar_loop() {
        let gain = Complex::new(-0.8, 0.33);
        for n in [1, 2, 8, 11, 769] {
            let w = wave(n, -0.2);
            let mut a = wave(n, 1.7);
            let mut b = a.clone();
            sub_scaled(&mut a, &w, gain);
            for (r, &s) in b.iter_mut().zip(w.iter()) {
                *r -= s * gain;
            }
            assert_eq!(a, b, "n={n}");
        }
    }
}
