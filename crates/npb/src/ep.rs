//! EP — Embarrassingly Parallel (NPB class S: `M = 24`, i.e. 2^24
//! Gaussian pairs in 256 batches of 2^16).
//!
//! Checkpoint variables (paper Table I): `double sx`, `double sy`,
//! `double q[10]`, `int k`. All are accumulators over the main (batch)
//! loop, so the paper finds every element critical; this port reproduces
//! that. The random stream itself is recomputed from per-batch seeds and
//! therefore — via the AD engine's constant folding — records *zero* tape
//! nodes, which is what makes whole-run AD of 2^24 samples tractable.

use crate::common::{Randlc, RANDLC_A};
use scrutiny_ad::{Adj, Real};
use scrutiny_core::{AppRun, AppSpec, ScrutinyApp, VarRefMut, VarSpec};
use std::ops::RangeInclusive;

/// EP's seed (NPB uses 271828183 for EP).
pub const EP_SEED: u64 = 271_828_183;

/// The EP benchmark.
pub struct Ep {
    /// Pairs per batch (`2^mk`).
    pub nk: usize,
    /// Number of batches (`2^(m − mk)`).
    pub batches: usize,
    /// Batch index at whose boundary the checkpoint is taken.
    pub ckpt_at: usize,
}

impl Ep {
    /// Class S: `M = 24`, `MK = 16` → 256 batches of 65536 pairs.
    pub fn class_s() -> Self {
        Self::new(24, 16, 128)
    }

    /// A reduced instance for fast tests.
    pub fn mini() -> Self {
        Self::new(16, 12, 8)
    }

    /// `m` total log2 pairs, `mk` log2 pairs per batch.
    pub fn new(m: u32, mk: u32, ckpt_at: usize) -> Self {
        assert!(m > mk, "need at least two batches");
        let nk = 1usize << mk;
        let batches = 1usize << (m - mk);
        assert!(
            ckpt_at < batches,
            "checkpoint must fall inside the batch loop"
        );
        Ep {
            nk,
            batches,
            ckpt_at,
        }
    }

    /// Gaussian-acceptance statistics of one batch, in plain f64 (data-
    /// independent of the checkpoint state).
    fn batch_stats(&self, k: usize) -> (f64, f64, [f64; 10]) {
        // Every batch gets an independent seed by jumping the stream
        // 2·nk·k steps, as NPB does with its `randlc` power trick.
        let seed = Randlc::jump(EP_SEED, RANDLC_A, (2 * self.nk * k) as u64);
        let mut rng = Randlc::new(seed);
        let (mut bsx, mut bsy) = (0.0f64, 0.0f64);
        let mut bq = [0.0f64; 10];
        for _ in 0..self.nk {
            let x1 = 2.0 * rng.next() - 1.0;
            let x2 = 2.0 * rng.next() - 1.0;
            let t = x1 * x1 + x2 * x2;
            if t <= 1.0 {
                // Marsaglia polar transform.
                let t2 = (-2.0 * t.ln() / t).sqrt();
                let gx = x1 * t2;
                let gy = x2 * t2;
                let l = (gx.abs().max(gy.abs()) as usize).min(9);
                bq[l] += 1.0;
                bsx += gx;
                bsy += gy;
            }
        }
        (bsx, bsy, bq)
    }

    fn start<R: Real>(&self) -> Box<EpRun<'_, R>> {
        Box::new(EpRun {
            ep: self,
            sx: [R::zero()],
            sy: [R::zero()],
            q: vec![R::zero(); 10],
            k_state: vec![0],
        })
    }
}

/// An [`Ep`] run between two batches.
#[derive(Clone)]
struct EpRun<'a, R> {
    ep: &'a Ep,
    sx: [R; 1],
    sy: [R; 1],
    q: Vec<R>,
    k_state: Vec<i64>,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for EpRun<'a, R> {
    fn step(&mut self, k: usize) -> bool {
        let (bsx, bsy, bq) = self.ep.batch_stats(k);
        self.sx[0] += R::lit(bsx);
        self.sy[0] += R::lit(bsy);
        for (ql, &b) in self.q.iter_mut().zip(&bq) {
            *ql += R::lit(b);
        }
        true
    }

    fn vars(&mut self, k: usize) -> Vec<VarRefMut<'_, R>> {
        self.k_state[0] = k as i64;
        vec![
            VarRefMut::F64(&mut self.sx),
            VarRefMut::F64(&mut self.sy),
            VarRefMut::F64(&mut self.q),
            VarRefMut::I64(&mut self.k_state),
        ]
    }

    /// The verification quantity: sums and all annulus counts (each
    /// weighted distinctly so every q bin matters to the output).
    fn output(&self) -> R {
        let mut out = self.sx[0] + self.sy[0];
        for (l, &ql) in self.q.iter().enumerate() {
            out += ql * (l as f64 + 1.0) * 1e-3;
        }
        out
    }

    fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a> {
        Box::new(self.clone())
    }

    fn snapshot_bytes(&self) -> usize {
        std::mem::size_of_val(self)
            + std::mem::size_of_val(&self.q[..])
            + std::mem::size_of_val(&self.k_state[..])
    }
}

impl ScrutinyApp for Ep {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "EP".into(),
            class: if self.batches * self.nk == 1 << 24 {
                "S".into()
            } else {
                format!("n=2^{}", (self.batches * self.nk).trailing_zeros())
            },
            vars: vec![
                VarSpec::f64("sx", &[1]),
                VarSpec::f64("sy", &[1]),
                VarSpec::f64("q", &[10]),
                VarSpec::int_scalar("k"),
            ],
        }
    }

    fn steps(&self) -> RangeInclusive<usize> {
        0..=self.batches - 1
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
        // Thirteen accumulations per remaining batch plus the output sum.
        (self.batches - self.ckpt_at) * 16 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::site::NoopSite;
    use scrutiny_core::{scrutinize, Policy, RestartConfig};

    #[test]
    fn gaussian_statistics_look_gaussian() {
        let ep = Ep::mini();
        let mut sums = (0.0, 0.0);
        let mut total = 0.0;
        for k in 0..ep.batches {
            let (sx, sy, q) = ep.batch_stats(k);
            sums.0 += sx;
            sums.1 += sy;
            total += q.iter().sum::<f64>();
        }
        let n = (ep.batches * ep.nk) as f64;
        // Acceptance rate of the polar method is π/4 ≈ 0.785.
        assert!((total / n - std::f64::consts::FRAC_PI_4).abs() < 0.01);
        // Means near zero (σ/√n scale).
        assert!(sums.0.abs() / total < 0.05);
        assert!(sums.1.abs() / total < 0.05);
    }

    #[test]
    fn batches_are_independent_of_order() {
        let ep = Ep::mini();
        let a = ep.batch_stats(5);
        let b = ep.batch_stats(5);
        assert_eq!(a.0, b.0);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn all_checkpoint_elements_critical() {
        let ep = Ep::mini();
        let report = scrutinize(&ep).unwrap();
        for var in &report.vars {
            assert_eq!(
                var.uncritical(),
                0,
                "EP accumulator {} should be fully critical",
                var.spec.name
            );
        }
        // Constant folding keeps the tape tiny despite 2^16 samples.
        assert!(
            report.tape_stats.nodes < 10_000,
            "tape exploded: {} nodes",
            report.tape_stats.nodes
        );
    }

    #[test]
    fn restart_is_bit_exact() {
        let ep = Ep::mini();
        let analysis = scrutinize(&ep).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            ..Default::default()
        };
        let report = scrutiny_core::checkpoint_restart_cycle(&ep, &analysis, &cfg).unwrap();
        assert!(report.verified);
        assert_eq!(report.abs_err, 0.0, "accumulator restart must be exact");
    }

    #[test]
    fn ad_and_f64_outputs_agree() {
        let ep = Ep::mini();
        let f = ep.run_f64(&mut NoopSite).output;
        let s = scrutiny_ad::TapeSession::new();
        let a = ep.run_ad(&mut NoopSite).output.value();
        drop(s);
        assert_eq!(f, a);
    }
}
