//! Regenerates the paper's Table II: uncritical element counts per
//! checkpoint variable, class S, with paper-vs-measured deltas. Exits
//! non-zero when a row differs from `expectations::TABLE2`.

use scrutiny_bench::expectations::expected2;
use scrutiny_core::{scrutinize, table2_rows};
use scrutiny_npb::table2_suite;

fn main() {
    println!("Table II: number of uncritical elements (class S)");
    println!(
        "{:<16} {:>10} {:>8} {:>9} {:>12} {:>8}",
        "Benchmark(var)", "Uncritical", "Total", "Rate", "Paper", "Match"
    );
    let mut all_match = true;
    for app in table2_suite() {
        let t0 = std::time::Instant::now();
        let report = scrutinize(app.as_ref()).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        for row in table2_rows(&report) {
            let paper = expected2(&report.app.name, &row.var);
            let (paper_str, matched) = match paper {
                Some(e) => (
                    format!("{}", e.uncritical),
                    e.uncritical == row.uncritical && e.total == row.total,
                ),
                None => ("-".to_string(), true),
            };
            all_match &= matched;
            println!(
                "{:<16} {:>10} {:>8} {:>8.1}% {:>12} {:>8}",
                row.label,
                row.uncritical,
                row.total,
                row.rate_pct(),
                paper_str,
                if matched { "yes" } else { "NO" }
            );
        }
        eprintln!(
            "  [{}: tape {} nodes ({:.1} MB), analysis {:.2}s]",
            report.app.name,
            report.tape_stats.nodes,
            report.tape_stats.bytes as f64 / 1e6,
            secs
        );
    }
    println!(
        "\nall rows match the paper: {}",
        if all_match { "YES" } else { "NO" }
    );
    if !all_match {
        std::process::exit(1);
    }
}
