//! `compare <a.json> <b.json>`: per workload × end-to-end metric, both
//! medians, the ratio with its base, the bound, and a verdict. This is
//! the rule every later performance claim is held to: `regressed` when
//! B's median is worse than A's by more than the metric's bound,
//! `unresolved` when either side's own run-to-run spread (quartile
//! distance ÷ median) is wider than that bound.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload;
use crate::Res;
use scrutiny_obs::json::{self, Json};
use std::path::Path;

/// One result file: for each workload, each end-to-end metric's values
/// over the file's untraced runs, and the failed share of all ops.
struct ResultFile {
    label: String,
    runs: Vec<Json>,
}

impl ResultFile {
    fn load(path: &Path) -> Res<ResultFile> {
        let doc = json::parse(&std::fs::read_to_string(path)?)?;
        if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{} is a smoke run (or not a result file): not for comparison",
                path.display()
            )
            .into());
        }
        let commit = doc.get("git_commit").and_then(Json::as_str).unwrap_or("?");
        Ok(ResultFile {
            label: format!("{} @ {:.12}", path.display(), commit),
            runs: doc
                .get("runs")
                .and_then(Json::as_arr)
                .ok_or("result file has no runs")?
                .to_vec(),
        })
    }

    fn untraced<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Json> + 'a {
        self.runs.iter().filter(move |r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(false)
        })
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.untraced(workload)
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    fn failed_share(&self, workload: &str) -> f64 {
        let sum = |key: &str| -> u64 {
            self.untraced(workload)
                .filter_map(|r| r.get(key)?.as_u64())
                .sum()
        };
        sum("failed") as f64 / sum("attempted").max(1) as f64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// By what share of A's median B's is worse (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn spread(values: &[f64]) -> Option<f64> {
    (values.len() >= 2).then(|| {
        let (q1, q3) = quartiles(values);
        (q3 - q1) / median(values)
    })
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if worse_by(median(a), median(b), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; `Ok(false)` on a regression or a larger failed
/// share.
pub fn compare(a: &Path, b: &Path) -> Res<bool> {
    let (a, b) = (ResultFile::load(a)?, ResultFile::load(b)?);
    println!("A = {}\nB = {}", a.label, b.label);
    let mut pass = true;
    for w in workload::ALL {
        println!("\n{}", w.name);
        println!(
            "  {:<22} {:>5} {:>13} {:>13} {:>9} {:>7}  verdict",
            "metric", "unit", "A median", "B median", "B/A", "bound"
        );
        for d in END_TO_END {
            let (va, vb) = (a.values(w.name, d.name), b.values(w.name, d.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{}/{} is missing from a file", w.name, d.name).into());
            }
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let v = verdict(&va, &vb, d.better, bound);
            pass &= v != Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "  {:<22} {:>5} {:>13.4} {:>13.4} {:>9.4} {:>6.1}%  {}",
                d.name,
                d.unit,
                ma,
                mb,
                mb / ma,
                100.0 * bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (a.failed_share(w.name), b.failed_share(w.name));
        if fb > fa {
            println!("  failed_ops / ops rose from {fa:.6} to {fb:.6}: REGRESSED");
            pass = false;
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(&[10.0], &[10.9], Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(&[10.0], &[11.1], Lower, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&[10.0], &[5.0], Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(&[10.0], &[8.9], Higher, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&[10.0], &[20.0], Higher, 0.10), Verdict::Ok);
        // A side whose own runs spread wider than the bound resolves nothing.
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(verdict(&noisy, &[30.0], Lower, 0.10), Verdict::Unresolved);
        let steady = [10.0, 10.1, 10.2, 10.3];
        assert_eq!(verdict(&steady, &[30.0], Lower, 0.10), Verdict::Regressed);
    }
}
