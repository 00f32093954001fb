//! Regenerates the paper's Table III: checkpoint storage before/after
//! pruning uncritical elements, with paper-vs-measured columns. "Net
//! saved" also charges the auxiliary file the paper's table leaves out.
//! Exits non-zero when a row's "Saved" differs from
//! `expectations::TABLE3` by more than 0.6 points, or when a row's
//! auxiliary file costs more than 1.0 point of it (Saved − Net saved).

use scrutiny_bench::expectations::expected3;
use scrutiny_core::restart::capture_state;
use scrutiny_core::{scrutinize, table3_row};
use scrutiny_npb::table2_suite;

/// How far a row's "Saved" may sit from the paper's, in points.
const TOLERANCE_PCT: f64 = 0.6;
/// The most of a row's saving its auxiliary file may take back, in points.
const AUX_MAX_PCT: f64 = 1.0;

fn main() {
    println!("Table III: checkpointing storage (class S)");
    println!("Bench     Original   Optimized    Saved       Aux  Net saved   Paper orig    Paper opt  Match");
    let mut avg = 0.0;
    let mut max: f64 = 0.0;
    let mut n = 0usize;
    let mut all_match = true;
    let mut aux_max: f64 = 0.0;
    for app in table2_suite() {
        let report = scrutinize(app.as_ref()).unwrap();
        let captured = capture_state(app.as_ref());
        let row = table3_row(&report, &captured).expect("serialization cannot fail in memory");
        let paper = expected3(&row.bench);
        let net_pct = 100.0 * (1.0 - (row.optimized_kib + row.aux_kib) / row.original_kib);
        let matched = paper.map_or(true, |e| {
            (row.saved_pct() - e.saved_pct).abs() <= TOLERANCE_PCT
        });
        all_match &= matched;
        aux_max = aux_max.max(row.saved_pct() - net_pct);
        println!(
            "{:<6} {:>9.1}kb {:>9.1}kb {:>7.1}% {:>7.2}kb {:>9.1}% {:>10}kb {:>10}kb {:>6}",
            row.bench,
            row.original_kib,
            row.optimized_kib,
            row.saved_pct(),
            row.aux_kib,
            net_pct,
            paper.map_or("-".into(), |e| format!("{:.1}", e.original_kb)),
            paper.map_or("-".into(), |e| format!("{:.1}", e.optimized_kb)),
            if matched { "yes" } else { "NO" }
        );
        avg += row.saved_pct();
        max = max.max(row.saved_pct());
        n += 1;
    }
    avg /= n as f64;
    println!("\naverage storage saved: {avg:.1}% (paper: ~13%), max: {max:.1}% (paper: up to 20%)");
    println!(
        "all rows within {TOLERANCE_PCT} points of the paper: {}",
        if all_match { "YES" } else { "NO" }
    );
    let aux_fits = aux_max <= AUX_MAX_PCT;
    println!(
        "every aux file within {AUX_MAX_PCT} point of its row's saving: {} (largest {aux_max:.2})",
        if aux_fits { "YES" } else { "NO" }
    );
    if !(all_match && aux_fits) {
        std::process::exit(1);
    }
}
