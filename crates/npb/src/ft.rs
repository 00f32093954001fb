//! FT — 3-D Fast Fourier Transform PDE solver (NPB class S: 64³ grid,
//! 6 iterations).
//!
//! Checkpoint variables (paper Table I): `dcomplex y[64][64][65]` (the
//! frequency-domain state, padded by one slot along the fastest axis),
//! `dcomplex sums[6]` (per-iteration checksums), `int kt`.
//!
//! The paper finds 4096 uncritical elements in `y` — exactly the padding
//! plane at index 64, which `evolve`'s loops (bounded by the logical 64)
//! never touch (Fig. 8, "imperfect coding"). This port reproduces that by
//! construction: arrays are `[nz][ny][nx+1]`, loops run to `nx`.
//!
//! The AD analysis additionally reveals a subtlety the paper does not
//! report: `sums` slots for iterations *after* the checkpoint are
//! overwritten before being read, so they are uncritical — only the
//! already-accumulated checksums need checkpointing.

use crate::common::Randlc;
use scrutiny_ad::{Adj, Cplx, Real};
use scrutiny_core::{AppRun, AppSpec, ScrutinyApp, VarRefMut, VarSpec};
use std::ops::RangeInclusive;

/// FT's seed (NPB uses 314159265 for FT's initial conditions).
const FT_SEED: u64 = 314_159_265;
/// NPB's diffusivity constant α.
const ALPHA: f64 = 1e-6;

/// The FT benchmark.
pub struct Ft {
    /// Logical grid extents (power of two).
    pub nx: usize,
    /// Logical grid extents (power of two).
    pub ny: usize,
    /// Logical grid extents (power of two).
    pub nz: usize,
    /// Main-loop iterations.
    pub niter: usize,
    /// Main-loop index at whose boundary the checkpoint is taken (1-based).
    pub ckpt_at: usize,
}

impl Ft {
    /// Class S: 64³, 6 iterations, checkpoint before the final iteration.
    pub fn class_s() -> Self {
        Self::new(64, 64, 64, 6, 6)
    }

    /// A reduced instance (8³) for fast tests.
    pub fn mini() -> Self {
        Self::new(8, 8, 8, 3, 2)
    }

    /// General constructor (extents must be powers of two).
    pub fn new(nx: usize, ny: usize, nz: usize, niter: usize, ckpt_at: usize) -> Self {
        for n in [nx, ny, nz] {
            assert!(n.is_power_of_two(), "FFT extents must be powers of two");
        }
        assert!(
            ckpt_at >= 1 && ckpt_at <= niter,
            "checkpoint must fall inside the main loop"
        );
        Ft {
            nx,
            ny,
            nz,
            niter,
            ckpt_at,
        }
    }

    /// Padded x extent (NPB pads the fastest axis by one to dodge cache
    /// aliasing — the source of the uncritical plane).
    pub fn xpad(&self) -> usize {
        self.nx + 1
    }

    /// Flat element count of `y` (complex elements).
    pub fn y_elems(&self) -> usize {
        self.nz * self.ny * self.xpad()
    }

    #[inline]
    fn idx(&self, k: usize, j: usize, i: usize) -> usize {
        (k * self.ny + j) * self.xpad() + i
    }

    /// In-place radix-2 FFT of one gathered line. Twiddles are literals:
    /// they never touch the AD tape.
    fn fft_line<R: Real>(line: &mut [Cplx<R>], inverse: bool) {
        let n = line.len();
        debug_assert!(n.is_power_of_two());
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
                line.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            for base in (0..n).step_by(len) {
                for off in 0..len / 2 {
                    let w: Cplx<R> = Cplx::cis(ang * off as f64);
                    let a = line[base + off];
                    let b = line[base + off + len / 2] * w;
                    line[base + off] = a + b;
                    line[base + off + len / 2] = a - b;
                }
            }
            len <<= 1;
        }
        if inverse {
            let scale = 1.0 / n as f64;
            for v in line.iter_mut() {
                *v = v.scale_lit(scale);
            }
        }
    }

    /// 3-D FFT over the logical `nx × ny × nz` sub-grid of a padded array.
    fn fft3d<R: Real>(&self, a: &mut [Cplx<R>], inverse: bool) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        // x lines (contiguous).
        let mut line: Vec<Cplx<R>> = vec![Cplx::zero(); nx.max(ny).max(nz)];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    line[i] = a[self.idx(k, j, i)];
                }
                Self::fft_line(&mut line[..nx], inverse);
                for i in 0..nx {
                    a[self.idx(k, j, i)] = line[i];
                }
            }
        }
        // y lines.
        for k in 0..nz {
            for i in 0..nx {
                for j in 0..ny {
                    line[j] = a[self.idx(k, j, i)];
                }
                Self::fft_line(&mut line[..ny], inverse);
                for j in 0..ny {
                    a[self.idx(k, j, i)] = line[j];
                }
            }
        }
        // z lines.
        for j in 0..ny {
            for i in 0..nx {
                for k in 0..nz {
                    line[k] = a[self.idx(k, j, i)];
                }
                Self::fft_line(&mut line[..nz], inverse);
                for k in 0..nz {
                    a[self.idx(k, j, i)] = line[k];
                }
            }
        }
    }

    /// Signed frequency of index `i` on an extent-`n` axis.
    fn freq(i: usize, n: usize) -> f64 {
        if i >= n / 2 {
            i as f64 - n as f64
        } else {
            i as f64
        }
    }

    /// `evolve`: `u1 = u0 · e^(−4·α·π²·|k|²·t)` — reads only the logical
    /// grid (`i < nx`), never the padding plane.
    fn evolve<R: Real>(&self, u0: &[Cplx<R>], u1: &mut [Cplx<R>], t: f64) {
        for k in 0..self.nz {
            let fk = Self::freq(k, self.nz);
            for j in 0..self.ny {
                let fj = Self::freq(j, self.ny);
                for i in 0..self.nx {
                    let fi = Self::freq(i, self.nx);
                    let ksq = fi * fi + fj * fj + fk * fk;
                    let factor =
                        (-4.0 * ALPHA * std::f64::consts::PI * std::f64::consts::PI * ksq * t)
                            .exp();
                    u1[self.idx(k, j, i)] = u0[self.idx(k, j, i)].scale_lit(factor);
                }
            }
        }
    }

    /// Scattered checksum over pseudo-random sites.
    ///
    /// NPB samples `(j mod nx, 3j mod ny, 5j mod nz)`, which visits only
    /// `nx` *distinct* cells lying on a lattice plane; the derivative of
    /// such a sum with respect to a frequency-domain element cancels
    /// *exactly* for every wavevector off the dual plane (a measure-zero
    /// artifact that real FFT rounding hides from Enzyme but that our
    /// exact small-size twiddles expose). We draw the sample sites from
    /// `randlc` instead — same checksum role, no degenerate geometry.
    fn checksum<R: Real>(&self, a: &[Cplx<R>]) -> Cplx<R> {
        let mut chk = Cplx::zero();
        let total = self.nx * self.ny * self.nz;
        let samples = 1024.min(total / 4);
        let mut rng = Randlc::new(1_234_567);
        for _ in 0..samples {
            let q = (rng.next() * self.nx as f64) as usize % self.nx;
            let r = (rng.next() * self.ny as f64) as usize % self.ny;
            let s = (rng.next() * self.nz as f64) as usize % self.nz;
            // Distinct per-sample weights: an unweighted sum over ±1-valued
            // basis functions (DC/Nyquist modes) is an integer and lands on
            // exactly 0 with noticeable probability; weighting makes every
            // element's influence on the checksum robustly non-zero.
            let w = 0.5 + rng.next();
            chk += a[self.idx(s, r, q)].scale_lit(w);
        }
        chk.scale_lit(1.0 / total as f64)
    }

    fn start<R: Real>(&self) -> Box<FtRun<'_, R>> {
        let n_elems = self.y_elems();
        // Initial conditions: random complex field on the logical grid
        // (program input — regenerated at restart, constant under AD).
        let mut rng = Randlc::new(FT_SEED);
        let mut u0: Vec<Cplx<R>> = vec![Cplx::zero(); n_elems];
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    let re = rng.next();
                    let im = rng.next();
                    u0[self.idx(k, j, i)] = Cplx::lit(re, im);
                }
            }
        }
        // Forward transform: y (u0) is the frequency-domain state.
        self.fft3d(&mut u0, false);
        Box::new(FtRun {
            ft: self,
            u0,
            sums: vec![Cplx::zero(); self.niter],
            kt_state: vec![0],
        })
    }
}

/// An [`Ft`] run between two evolution steps.
#[derive(Clone)]
struct FtRun<'a, R> {
    ft: &'a Ft,
    u0: Vec<Cplx<R>>,
    sums: Vec<Cplx<R>>,
    kt_state: Vec<i64>,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for FtRun<'a, R> {
    fn step(&mut self, kt: usize) -> bool {
        let ft = self.ft;
        // Every element is written by `evolve` before the inverse
        // transform reads it: scratch carries nothing between steps.
        let mut scratch: Vec<Cplx<R>> = vec![Cplx::zero(); self.u0.len()];
        ft.evolve(&self.u0, &mut scratch, kt as f64);
        ft.fft3d(&mut scratch, true);
        self.sums[kt - 1] = ft.checksum(&scratch);
        true
    }

    fn vars(&mut self, kt: usize) -> Vec<VarRefMut<'_, R>> {
        self.kt_state[0] = kt as i64;
        vec![
            VarRefMut::C128(&mut self.u0),
            VarRefMut::C128(&mut self.sums),
            VarRefMut::I64(&mut self.kt_state),
        ]
    }

    /// The verification quantity: all checksum components.
    fn output(&self) -> R {
        let mut out = R::zero();
        for s in &self.sums {
            out += s.re + s.im;
        }
        out
    }

    fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a> {
        Box::new(self.clone())
    }

    fn snapshot_bytes(&self) -> usize {
        std::mem::size_of_val(self)
            + std::mem::size_of_val(&self.u0[..])
            + std::mem::size_of_val(&self.sums[..])
            + std::mem::size_of_val(&self.kt_state[..])
    }
}

impl ScrutinyApp for Ft {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "FT".into(),
            class: if self.nx == 64 {
                "S".into()
            } else {
                format!("{}^3", self.nx)
            },
            vars: vec![
                VarSpec::c128("y", &[self.nz, self.ny, self.xpad()]),
                VarSpec::c128("sums", &[self.niter]),
                VarSpec::int_scalar("kt"),
            ],
        }
    }

    fn steps(&self) -> RangeInclusive<usize> {
        1..=self.niter
    }

    fn checkpoint_iter(&self) -> usize {
        self.ckpt_at
    }

    fn start_f64(&self) -> Box<dyn AppRun<'_, f64> + '_> {
        self.start()
    }

    fn start_ad(&self) -> Box<dyn AppRun<'_, Adj> + '_> {
        self.start()
    }

    fn tape_capacity_hint(&self) -> usize {
        let remaining = self.niter - self.ckpt_at + 1;
        let logical = self.nx * self.ny * self.nz;
        let stages = (self.nx.trailing_zeros()
            + self.ny.trailing_zeros()
            + self.nz.trailing_zeros()) as usize;
        remaining * logical * (2 + 5 * stages) + (1 << 16)
    }

    fn tolerance(&self) -> f64 {
        1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::site::NoopSite;
    use scrutiny_core::{scrutinize, Policy, RestartConfig};

    #[test]
    fn fft_roundtrip_is_identity() {
        let ft = Ft::mini();
        let mut rng = Randlc::new(99);
        let mut a: Vec<Cplx<f64>> = vec![Cplx::zero(); ft.y_elems()];
        for k in 0..ft.nz {
            for j in 0..ft.ny {
                for i in 0..ft.nx {
                    a[ft.idx(k, j, i)] = Cplx::new(rng.next() - 0.5, rng.next() - 0.5);
                }
            }
        }
        let orig = a.clone();
        ft.fft3d(&mut a, false);
        ft.fft3d(&mut a, true);
        for (x, y) in a.iter().zip(&orig) {
            assert!((x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_line_matches_dft_definition() {
        // 4-point DFT of [1, 0, 0, 0] is all-ones.
        let mut line: Vec<Cplx<f64>> = vec![
            Cplx::new(1.0, 0.0),
            Cplx::zero(),
            Cplx::zero(),
            Cplx::zero(),
        ];
        Ft::fft_line(&mut line, false);
        for v in &line {
            assert!((v.re - 1.0).abs() < 1e-15 && v.im.abs() < 1e-15);
        }
    }

    #[test]
    fn parseval_holds() {
        let ft = Ft::mini();
        let mut rng = Randlc::new(5);
        let n = ft.nx * ft.ny * ft.nz;
        let mut a: Vec<Cplx<f64>> = vec![Cplx::zero(); ft.y_elems()];
        let mut time_energy = 0.0;
        for k in 0..ft.nz {
            for j in 0..ft.ny {
                for i in 0..ft.nx {
                    let c = Cplx::new(rng.next() - 0.5, rng.next() - 0.5);
                    time_energy += c.norm_sqr();
                    a[ft.idx(k, j, i)] = c;
                }
            }
        }
        ft.fft3d(&mut a, false);
        let mut freq_energy = 0.0;
        for k in 0..ft.nz {
            for j in 0..ft.ny {
                for i in 0..ft.nx {
                    freq_energy += a[ft.idx(k, j, i)].norm_sqr();
                }
            }
        }
        assert!((freq_energy / n as f64 - time_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn deterministic_and_finite() {
        let ft = Ft::mini();
        let a = ft.run_f64(&mut NoopSite).output;
        assert_eq!(a, ft.run_f64(&mut NoopSite).output);
        assert!(a.is_finite());
    }

    #[test]
    fn mini_criticality_pattern() {
        let ft = Ft::mini();
        let report = scrutinize(&ft).unwrap();
        let y = report.var("y").unwrap();
        assert_eq!(y.total(), ft.y_elems());
        // Exactly the padding plane (i = nx) is uncritical.
        assert_eq!(y.uncritical(), ft.nz * ft.ny);
        for k in 0..ft.nz {
            for j in 0..ft.ny {
                assert!(!y.value_map.get(ft.idx(k, j, ft.nx)));
            }
        }
        // sums: already-computed slots critical, future slots overwritten.
        let sums = report.var("sums").unwrap();
        for s in 0..ft.niter {
            let past = s + 1 < ft.ckpt_at;
            assert_eq!(
                sums.value_map.get(s),
                past,
                "sums[{s}] criticality (ckpt at {})",
                ft.ckpt_at
            );
        }
    }

    #[test]
    fn restart_with_garbage_holes_verifies() {
        let ft = Ft::mini();
        let analysis = scrutinize(&ft).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            ..Default::default()
        };
        let report = scrutiny_core::checkpoint_restart_cycle(&ft, &analysis, &cfg).unwrap();
        assert!(report.verified, "rel err {}", report.rel_err);
    }
}
