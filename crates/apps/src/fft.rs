//! FFT — distributed 1-D Fast Fourier Transform (transpose algorithm).
//!
//! The classic six-step formulation: view the length-N signal as an S×S
//! matrix, then transpose → row FFTs → twiddle scaling → transpose → row
//! FFTs → transpose. The three transposes are personalized all-to-alls with
//! very little computation in between — the communication pattern the paper
//! found to *resist* cluster-aware optimization. Accordingly there is no
//! optimized variant: both [`crate::Variant`]s run the same program, and FFT
//! serves as the suite's negative control.

use std::ops::{Add, Mul, Sub};

use rand::Rng;

use numagap_rt::Ctx;
use numagap_sim::Tag;

use crate::common::{block_range, seeded_rng, RankOutput, Variant};

/// A complex number (own implementation — no external dependency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cpx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cpx {
    /// Constructs a complex number.
    pub const fn new(re: f64, im: f64) -> Self {
        Cpx { re, im }
    }

    /// `e^{-2πi k / n}` — the DFT root of unity.
    pub fn twiddle(k: usize, n: usize) -> Self {
        let angle = -2.0 * std::f64::consts::PI * (k % n) as f64 / n as f64;
        Cpx::new(angle.cos(), angle.sin())
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl Add for Cpx {
    type Output = Cpx;
    fn add(self, o: Cpx) -> Cpx {
        Cpx::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Cpx {
    type Output = Cpx;
    fn sub(self, o: Cpx) -> Cpx {
        Cpx::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Cpx {
    type Output = Cpx;
    fn mul(self, o: Cpx) -> Cpx {
        Cpx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// FFT problem configuration. `log2_n` must be even so the matrix is square.
#[derive(Debug, Clone, PartialEq)]
pub struct FftConfig {
    /// Problem size exponent: N = 2^log2_n points.
    pub log2_n: u32,
    /// Workload seed.
    pub seed: u64,
    /// Virtual nanoseconds per radix-2 butterfly.
    pub butterfly_ns: f64,
    /// Virtual nanoseconds per element for twiddle scaling and transpose
    /// packing.
    pub element_ns: f64,
}

impl FftConfig {
    /// Test-scale instance (N = 2^12).
    pub fn small() -> Self {
        FftConfig {
            log2_n: 12,
            seed: 11,
            butterfly_ns: 40.0,
            element_ns: 10.0,
        }
    }

    /// Bench-scale instance (N = 2^18).
    pub fn medium() -> Self {
        FftConfig {
            log2_n: 18,
            seed: 11,
            butterfly_ns: 2000.0,
            element_ns: 50.0,
        }
    }

    /// The paper's problem size (N = 2^20, the largest that fit in memory).
    pub fn paper() -> Self {
        FftConfig {
            log2_n: 20,
            seed: 11,
            butterfly_ns: 40.0,
            element_ns: 10.0,
        }
    }

    /// Matrix side: S = sqrt(N).
    pub fn side(&self) -> usize {
        assert!(self.log2_n.is_multiple_of(2), "log2_n must be even");
        1usize << (self.log2_n / 2)
    }

    /// Total points N.
    pub fn n(&self) -> usize {
        1usize << self.log2_n
    }

    /// Deterministic input signal.
    pub fn generate(&self) -> Vec<Cpx> {
        let mut rng = seeded_rng(self.seed ^ 0xFF7);
        (0..self.n())
            .map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_in_place(a: &mut [Cpx]) {
    let n = a.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            a.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let step = Cpx::twiddle(1, len);
        for chunk in a.chunks_mut(len) {
            let mut w = Cpx::new(1.0, 0.0);
            for i in 0..len / 2 {
                let u = chunk[i];
                let v = chunk[i + len / 2] * w;
                chunk[i] = u + v;
                chunk[i + len / 2] = u - v;
                w = w * step;
            }
        }
        len <<= 1;
    }
}

/// Naive O(N²) DFT — the verification oracle for small sizes.
pub fn naive_dft(x: &[Cpx]) -> Vec<Cpx> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Cpx::default();
            for (idx, &v) in x.iter().enumerate() {
                acc = acc + v * Cpx::twiddle(idx * k, n);
            }
            acc
        })
        .collect()
}

/// Serial six-step FFT reference (same algorithm as the parallel code).
pub fn serial_fft(cfg: &FftConfig) -> Vec<Cpx> {
    let mut x = cfg.generate();
    fft_in_place(&mut x);
    x
}

/// Spectrum checksum: sum of squared magnitudes (ties to Parseval's theorem)
/// plus a phase-sensitive term so ordering errors are caught.
pub fn spectrum_checksum(x: &[Cpx]) -> f64 {
    x.iter()
        .enumerate()
        .map(|(i, c)| c.norm_sq() + 1e-3 * (i as f64 % 97.0) * c.re)
        .sum()
}

fn transpose_tag(step: usize) -> Tag {
    Tag::app(0x2000 + step as u32)
}

/// Distributed square-matrix transpose: rows are block-distributed; every
/// processor exchanges sub-blocks with every other (personalized all-to-all).
fn dist_transpose(
    ctx: &mut Ctx<'_>,
    rows: Vec<Vec<Cpx>>,
    s: usize,
    step: usize,
    element_ns: f64,
) -> Vec<Vec<Cpx>> {
    let p = ctx.nprocs();
    let me = ctx.rank();
    let (lo, hi) = block_range(s, p, me);
    debug_assert_eq!(rows.len(), hi - lo);
    let tag = transpose_tag(step);
    // Send the transposed sub-block for every other processor.
    for q in 0..p {
        if q == me {
            continue;
        }
        let (qlo, qhi) = block_range(s, p, q);
        // Receiver's new rows qlo..qhi need my old columns — transposed, so
        // pack column-major over my rows.
        let mut block = Vec::with_capacity((qhi - qlo) * (hi - lo));
        for c in qlo..qhi {
            for row in &rows {
                block.push(row[c]);
            }
        }
        let bytes = (block.len() * 16) as u64;
        ctx.send(q, tag, (me as u32, block), bytes);
    }
    ctx.compute_ns((s * (hi - lo)) as f64 * element_ns);
    // Assemble my new rows (old columns lo..hi).
    let mut new_rows = vec![vec![Cpx::default(); s]; hi - lo];
    // Local part.
    for (r_new, new_row) in new_rows.iter_mut().enumerate() {
        for (r_old, old_row) in rows.iter().enumerate() {
            new_row[lo + r_old] = old_row[lo + r_new];
        }
    }
    // Remote parts.
    for _ in 0..p.saturating_sub(1) {
        let msg = ctx.recv_tag(tag);
        let (src, block) = {
            let (srcu, b) = msg.expect_ref::<(u32, Vec<Cpx>)>();
            (*srcu as usize, b.clone())
        };
        // The sender's old rows become my new columns slo..shi; the block's
        // outer dimension is my new rows (in order), inner is those columns.
        let (slo, shi) = block_range(s, p, src);
        let s_rows = shi - slo;
        let mut it = block.into_iter();
        for new_row in new_rows.iter_mut() {
            for offset in 0..s_rows {
                new_row[slo + offset] = it.next().expect("transpose block underrun");
            }
        }
        debug_assert!(it.next().is_none(), "transpose block overrun");
    }
    new_rows
}

/// Runs the distributed FFT on one rank, returning the checksum over this
/// rank's slice of the spectrum. `variant` is accepted for suite uniformity
/// but ignored — the paper found no optimization for FFT.
pub fn fft_rank(ctx: &mut Ctx<'_>, cfg: &FftConfig, _variant: Variant) -> RankOutput {
    let s = cfg.side();
    let p = ctx.nprocs();
    assert!(
        p <= s,
        "FFT needs at least one matrix row per processor (p={p}, side={s})"
    );
    let me = ctx.rank();
    let (lo, hi) = block_range(s, p, me);
    let x = cfg.generate();
    // Initial layout: row-major S×S matrix, my rows are lo..hi.
    let mut rows: Vec<Vec<Cpx>> = (lo..hi).map(|r| x[r * s..(r + 1) * s].to_vec()).collect();
    let n = cfg.n();
    let butterflies_per_row = (s / 2) * s.trailing_zeros() as usize;

    // Step 1: transpose.
    rows = dist_transpose(ctx, rows, s, 0, cfg.element_ns);
    // Step 2: FFT rows.
    for row in rows.iter_mut() {
        fft_in_place(row);
    }
    ctx.compute_ns((rows.len() * butterflies_per_row) as f64 * cfg.butterfly_ns);
    // Step 3: twiddle by W_N^{rq} (r = global row index).
    for (i, row) in rows.iter_mut().enumerate() {
        let r = lo + i;
        for (q, v) in row.iter_mut().enumerate() {
            *v = *v * Cpx::twiddle(r * q, n);
        }
    }
    ctx.compute_ns((rows.len() * s) as f64 * cfg.element_ns);
    // Step 4: transpose.
    rows = dist_transpose(ctx, rows, s, 1, cfg.element_ns);
    // Step 5: FFT rows.
    for row in rows.iter_mut() {
        fft_in_place(row);
    }
    ctx.compute_ns((rows.len() * butterflies_per_row) as f64 * cfg.butterfly_ns);
    // Step 6: transpose back to natural order.
    rows = dist_transpose(ctx, rows, s, 2, cfg.element_ns);

    let mut checksum = 0.0;
    for (i, row) in rows.iter().enumerate() {
        let base = (lo + i) * s;
        for (j, c) in row.iter().enumerate() {
            let k = base + j;
            checksum += c.norm_sq() + 1e-3 * (k as f64 % 97.0) * c.re;
        }
    }
    RankOutput::new(checksum, (rows.len() * butterflies_per_row * 2) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{rel_err, total_checksum};
    use numagap_net::{das_spec, uniform_spec};
    use numagap_rt::Machine;

    #[test]
    fn fft_matches_naive_dft() {
        let mut rng = seeded_rng(5);
        let x: Vec<Cpx> = (0..64)
            .map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut fast = x.clone();
        fft_in_place(&mut fast);
        let slow = naive_dft(&x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a.re - b.re).abs() < 1e-9);
            assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_holds() {
        let cfg = FftConfig {
            log2_n: 10,
            ..FftConfig::small()
        };
        let x = cfg.generate();
        let time_energy: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let spec = serial_fft(&cfg);
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum();
        assert!(rel_err(freq_energy, time_energy * cfg.n() as f64) < 1e-9);
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = FftConfig::small();
        let expected = spectrum_checksum(&serial_fft(&cfg));
        for p in [1usize, 2, 4, 8] {
            let cfg2 = cfg.clone();
            let report = Machine::new(uniform_spec(p))
                .run(move |ctx| fft_rank(ctx, &cfg2, Variant::Unoptimized))
                .unwrap();
            let got = total_checksum(&report.results);
            assert!(rel_err(got, expected) < 1e-9, "p={p}: {got} vs {expected}");
        }
    }

    #[test]
    fn parallel_matches_on_clusters_with_uneven_blocks() {
        let cfg = FftConfig::small();
        let expected = spectrum_checksum(&serial_fft(&cfg));
        // 3 clusters of 3: blocks of the 64 rows are uneven (22/21/21...).
        let report = Machine::new(das_spec(3, 3, 2.0, 1.0))
            .run(move |ctx| fft_rank(ctx, &cfg, Variant::Optimized))
            .unwrap();
        let got = total_checksum(&report.results);
        assert!(rel_err(got, expected) < 1e-9);
    }

    #[test]
    fn transpose_volume_is_all_to_all() {
        let cfg = FftConfig::small();
        let report = Machine::new(das_spec(4, 2, 1.0, 6.0))
            .run(move |ctx| fft_rank(ctx, &cfg, Variant::Unoptimized))
            .unwrap();
        let p = 8u64;
        // 3 transposes x p(p-1) messages.
        assert_eq!(report.net_stats.total_msgs(), 3 * p * (p - 1));
        // Most data crosses clusters: 6 of 7 peers are remote for everyone.
        assert!(report.net_stats.inter_payload_bytes > report.net_stats.intra_payload_bytes);
    }

    #[test]
    fn twiddle_roots_are_unit() {
        for (k, n) in [(0usize, 8usize), (3, 8), (5, 16), (7, 7)] {
            let w = Cpx::twiddle(k, n);
            assert!((w.norm_sq() - 1.0).abs() < 1e-12);
        }
        let w = Cpx::twiddle(1, 4);
        assert!((w.re - 0.0).abs() < 1e-12 && (w.im + 1.0).abs() < 1e-12);
    }
}
