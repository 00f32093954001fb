//! Fault-injection campaigns over criticality maps (paper §IV.C).
//!
//! A campaign repeatedly restores a pruned checkpoint, corrupts a chosen
//! population of elements (uncritical or critical), reruns the
//! application, and tallies whether its verification still passes. The
//! paper's claim holds when uncritical-targeted runs always verify and
//! critical-targeted runs do not.

use crate::corruption::Corruption;
use scrutiny_core::{
    restart_cycle, AnalysisReport, CheckpointSource, FillPolicy, Policy, RestartConfig,
    ScrutinyApp, VarData,
};

/// Which element population to corrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Elements the AD analysis marked uncritical (expected harmless).
    Uncritical,
    /// Elements the AD analysis marked critical (expected harmful).
    Critical,
}

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Population to corrupt.
    pub target: Target,
    /// Corruption model.
    pub corruption: Corruption,
    /// Elements corrupted per trial (capped by the population size).
    pub elems_per_trial: usize,
    /// Number of independent trials (different element picks).
    pub trials: usize,
    /// RNG seed for element selection.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            target: Target::Uncritical,
            corruption: Corruption::Poison(1e30),
            elems_per_trial: 16,
            trials: 8,
            seed: 0xFA57,
        }
    }
}

/// Campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Trials whose verification passed.
    pub verified: usize,
    /// Trials whose verification failed.
    pub failed: usize,
    /// Total elements corrupted across all trials.
    pub corrupted_elems: usize,
    /// Largest relative output error observed.
    pub max_rel_err: f64,
}

impl CampaignReport {
    /// Total trials run.
    pub fn trials(&self) -> usize {
        self.verified + self.failed
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Run a fault-injection campaign against `app` using its criticality
/// analysis. Float variables only (integer state is handled by the IS
/// module's liveness machinery).
pub fn run_campaign(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    cfg: &CampaignConfig,
) -> CampaignReport {
    let mut rng = cfg.seed;
    let mut report = CampaignReport::default();
    for _ in 0..cfg.trials {
        let pick = splitmix(&mut rng);
        let restart_cfg = RestartConfig {
            policy: Policy::PrunedValue,
            fill: FillPolicy::Garbage(pick),
            store_dir: None,
        };
        let target = cfg.target;
        let corruption = cfg.corruption;
        let per_trial = cfg.elems_per_trial;
        let mut corrupted = 0usize;
        let source = CheckpointSource::Blocking;
        let result = restart_cycle(app, analysis, &restart_cfg, source, |bufs, analysis| {
            let mut local = pick;
            for (buf, crit) in bufs.iter_mut().zip(&analysis.vars) {
                let candidates: Vec<usize> = match target {
                    Target::Uncritical => crit.value_map.zeros().collect(),
                    Target::Critical => crit.value_map.ones().collect(),
                };
                if candidates.is_empty() {
                    continue;
                }
                let n = per_trial.min(candidates.len());
                for _ in 0..n {
                    let idx = candidates[(splitmix(&mut local) as usize) % candidates.len()];
                    match buf {
                        VarData::F64(v) => {
                            v[idx] = corruption.apply(v[idx]);
                            corrupted += 1;
                        }
                        VarData::C128(v) => {
                            let (re, im) = v[idx];
                            v[idx] = (corruption.apply(re), corruption.apply(im));
                            corrupted += 1;
                        }
                        VarData::I64(_) => {}
                    }
                }
            }
        })
        .expect("in-memory restart cannot fail on I/O");
        report.corrupted_elems += corrupted;
        if result.verified {
            report.verified += 1;
        } else {
            report.failed += 1;
        }
        if result.rel_err > report.max_rel_err {
            report.max_rel_err = result.rel_err;
        }
    }
    report
}

/// Run one campaign per corruption model, holding target, trial count and
/// seed fixed: the cross-product the differential harness sweeps when it
/// checks that a verdict survives *every* corruption shape, not just the
/// default poison.
pub fn campaign_matrix(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    base: &CampaignConfig,
    corruptions: &[Corruption],
) -> Vec<(Corruption, CampaignReport)> {
    corruptions
        .iter()
        .map(|&corruption| {
            let cfg = CampaignConfig {
                corruption,
                ..base.clone()
            };
            (corruption, run_campaign(app, analysis, &cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::scrutinize;
    use scrutiny_core::tiny::Heat1d;

    #[test]
    fn uncritical_campaign_always_verifies() {
        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let cfg = CampaignConfig {
            trials: 6,
            ..Default::default()
        };
        let report = run_campaign(&app, &analysis, &cfg);
        assert_eq!(report.failed, 0, "uncritical corruption must be harmless");
        assert!(report.corrupted_elems > 0);
    }

    #[test]
    fn critical_campaign_always_fails() {
        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let cfg = CampaignConfig {
            target: Target::Critical,
            corruption: Corruption::Poison(1e6),
            trials: 6,
            ..Default::default()
        };
        let report = run_campaign(&app, &analysis, &cfg);
        assert_eq!(report.verified, 0, "critical corruption must be caught");
        assert!(report.max_rel_err > 1.0);
    }

    #[test]
    fn bitflip_campaign_on_uncritical_is_harmless() {
        let app = Heat1d::new(12, 8, 4);
        let analysis = scrutinize(&app).unwrap();
        let cfg = CampaignConfig {
            corruption: Corruption::BitFlip { bit: 62 },
            trials: 4,
            ..Default::default()
        };
        let report = run_campaign(&app, &analysis, &cfg);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn campaign_matrix_sweeps_every_corruption_model() {
        let app = Heat1d::new(12, 8, 4);
        let analysis = scrutinize(&app).unwrap();
        let base = CampaignConfig {
            trials: 2,
            ..Default::default()
        };
        let models = [
            Corruption::Zero,
            Corruption::BitFlip { bit: 63 },
            Corruption::Poison(1e30),
            Corruption::Scale(3.0),
            Corruption::Offset(-7.5),
        ];
        let results = campaign_matrix(&app, &analysis, &base, &models);
        assert_eq!(results.len(), models.len());
        for (model, report) in &results {
            assert_eq!(report.failed, 0, "{model:?} on uncritical elements");
            assert_eq!(report.trials(), 2);
        }
    }
}
