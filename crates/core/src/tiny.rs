//! A miniature demonstration application: 1-D heat diffusion.
//!
//! `Heat1d` is the "hello world" of the scrutiny API, exhibiting in a few
//! dozen lines the three element behaviours the paper observed in NPB:
//!
//! * live state (`temp[0..n+2]`, including both boundary cells) — critical;
//! * allocation padding (`temp[n+2..n+4]`, declared but never indexed,
//!   like `x[NA..NA+2]` in CG) — uncritical;
//! * a scratch array rewritten every iteration before any read
//!   (`workspace`) — uncritical *despite being live data moments earlier*.

use crate::app::{AppRun, ScrutinyApp};
use crate::site::VarRefMut;
use crate::spec::{AppSpec, VarSpec};
use scrutiny_ad::{Adj, Real};
use std::ops::RangeInclusive;

/// Explicit 1-D heat equation with ghost boundaries and tail padding.
pub struct Heat1d {
    /// Interior cells.
    pub n: usize,
    /// Total diffusion steps.
    pub niter: usize,
    /// Checkpoint boundary (main-loop index).
    pub ckpt_at: usize,
}

impl Heat1d {
    /// New instance; checkpoints at the boundary of iteration `ckpt_at`.
    pub fn new(n: usize, niter: usize, ckpt_at: usize) -> Self {
        assert!(n >= 2 && niter >= 1 && ckpt_at < niter);
        Heat1d { n, niter, ckpt_at }
    }

    fn start<R: Real>(&self) -> Box<HeatRun<R>> {
        let n = self.n;
        // temp[0] and temp[n+1] are fixed boundary cells; the final two
        // slots are padding that no loop ever touches (a deliberate
        // "imperfect coding" artifact, cf. paper §IV.B).
        let temp = (0..n + 4)
            .map(|i| {
                if i < n + 2 {
                    R::lit((std::f64::consts::PI * i as f64 / (n + 1) as f64).sin())
                } else {
                    R::lit(777.0)
                }
            })
            .collect();
        Box::new(HeatRun {
            n,
            temp,
            workspace: vec![R::zero(); n],
            it_state: vec![0],
        })
    }
}

/// A [`Heat1d`] run between two diffusion steps.
#[derive(Clone)]
struct HeatRun<R> {
    n: usize,
    temp: Vec<R>,
    workspace: Vec<R>,
    it_state: Vec<i64>,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for HeatRun<R> {
    fn step(&mut self, _it: usize) -> bool {
        let (n, temp, workspace) = (self.n, &mut self.temp, &mut self.workspace);
        let alpha = 0.1;
        for i in 1..=n {
            workspace[i - 1] = temp[i - 1] - temp[i] * 2.0 + temp[i + 1];
        }
        for i in 1..=n {
            temp[i] += workspace[i - 1] * alpha;
        }
        true
    }

    fn vars(&mut self, it: usize) -> Vec<VarRefMut<'_, R>> {
        self.it_state[0] = it as i64;
        vec![
            VarRefMut::F64(&mut self.temp),
            VarRefMut::F64(&mut self.workspace),
            VarRefMut::I64(&mut self.it_state),
        ]
    }

    fn output(&self) -> R {
        let (n, temp) = (self.n, &self.temp);
        let mut out = (temp[0] + temp[n + 1]) * 0.5;
        for t in temp.iter().take(n + 1).skip(1) {
            out += *t;
        }
        out
    }

    fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a> {
        Box::new(self.clone())
    }

    fn snapshot_bytes(&self) -> usize {
        std::mem::size_of_val(self)
            + std::mem::size_of_val(&self.temp[..])
            + std::mem::size_of_val(&self.workspace[..])
            + std::mem::size_of_val(&self.it_state[..])
    }
}

impl ScrutinyApp for Heat1d {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "HEAT1D".into(),
            class: format!("n={}", self.n),
            vars: vec![
                VarSpec::f64("temp", &[self.n + 4]),
                VarSpec::f64("workspace", &[self.n]),
                VarSpec::int_scalar("it"),
            ],
        }
    }

    fn steps(&self) -> RangeInclusive<usize> {
        // `new` guarantees an iteration; built by hand with none, the loop
        // is empty.
        match self.niter.checked_sub(1) {
            Some(last) => 0..=last,
            #[allow(clippy::reversed_empty_ranges)]
            None => 1..=0,
        }
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
        self.n * (self.niter + 4) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::NoopSite;

    #[test]
    fn deterministic_output() {
        let app = Heat1d::new(16, 10, 5);
        let a = app.run_f64(&mut NoopSite).output;
        let b = app.run_f64(&mut NoopSite).output;
        assert_eq!(a, b);
        assert!(a.is_finite());
    }

    #[test]
    fn diffusion_preserves_interior_energy_roughly() {
        // With fixed sin boundary at zero ends, total heat decays toward
        // the boundary average; the output must stay bounded.
        let app = Heat1d::new(32, 50, 10);
        let out = app.run_f64(&mut NoopSite).output;
        assert!(out > 0.0 && out < 32.0);
    }

    #[test]
    fn no_iterations_is_an_empty_loop() {
        // `new` refuses it, the public fields do not.
        let app = Heat1d {
            n: 4,
            niter: 0,
            ckpt_at: 0,
        };
        assert!(app.steps().is_empty());
        let initial = app.start_f64().output();
        assert_eq!(app.run_f64(&mut NoopSite).output, initial);
    }

    #[test]
    fn f64_and_ad_runs_agree() {
        let app = Heat1d::new(8, 6, 3);
        let f = app.run_f64(&mut NoopSite).output;
        let session = scrutiny_ad::TapeSession::new();
        let a = app.run_ad(&mut NoopSite).output.value();
        drop(session);
        assert!((f - a).abs() < 1e-12);
    }
}
