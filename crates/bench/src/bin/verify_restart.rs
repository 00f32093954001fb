//! The paper's §IV.C experiment: restart every benchmark from a pruned
//! checkpoint (uncritical holes filled with garbage) and require its
//! verification to pass; then fault-inject to show uncritical corruption
//! is harmless while critical corruption is caught. Exits non-zero when
//! any of its own verdict columns says no.

use scrutiny_core::{checkpoint_restart_cycle, scrutinize, FillPolicy, Policy, RestartConfig};
use scrutiny_faultinj::{run_campaign, CampaignConfig, Corruption, Target};
use scrutiny_npb::is::IsSite;
use scrutiny_npb::{ad_suite, Is};

fn main() {
    println!(
        "{:<6} {:>9} {:>12} {:>12} {:>10} {:>13} {:>13}",
        "Bench", "verified", "rel err", "pruned kb", "full kb", "inj-unc pass", "inj-crit fail"
    );
    let mut all_ok = true;
    let dir = std::env::temp_dir().join(format!("scrutiny_verify_{}", std::process::id()));
    for app in ad_suite() {
        let analysis = scrutinize(app.as_ref()).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            fill: FillPolicy::Garbage(0xDEAD),
            store_dir: Some(dir.clone()),
        };
        let r =
            checkpoint_restart_cycle(app.as_ref(), &analysis, &cfg).expect("checkpoint I/O failed");
        let unc = run_campaign(
            app.as_ref(),
            &analysis,
            &CampaignConfig {
                trials: 3,
                ..Default::default()
            },
        );
        let crit = run_campaign(
            app.as_ref(),
            &analysis,
            &CampaignConfig {
                target: Target::Critical,
                corruption: Corruption::Poison(1e12),
                trials: 3,
                ..Default::default()
            },
        );
        all_ok &= r.verified && unc.failed == 0 && crit.verified == 0;
        println!(
            "{:<6} {:>9} {:>12.2e} {:>10.1}kb {:>8.1}kb {:>10}/{:<2} {:>10}/{:<2}",
            analysis.app.name,
            r.verified,
            r.rel_err,
            r.storage.total_kib(),
            r.full_storage.total_kib(),
            unc.verified,
            unc.trials(),
            crit.failed,
            crit.trials(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // IS: integer benchmark, validated through the liveness machinery.
    let is = Is::class_s();
    let golden = is.run(IsSite::Noop);
    let mut captured = Vec::new();
    is.run(IsSite::Capture(&mut captured));
    captured[1].iter_mut().for_each(|v| *v = -1); // dead bucket_ptrs
    let restarted = is.run(IsSite::Restore(&captured));
    let is_ok = restarted.passed_verification == golden.passed_verification;
    println!(
        "IS     {:>9} (passed_verification {} == {})",
        is_ok, restarted.passed_verification, golden.passed_verification
    );
    if !(all_ok && is_ok) {
        std::process::exit(1);
    }
}
