//! Regression tests pinning the paper's Table II numbers at class S, read
//! from the one copy of the table, `scrutiny_bench::expectations::TABLE2`
//! (which carries the size-consistent `LU(rho_i)` / `LU(rsd)` assignment),
//! and the encoded size of the five class-S suite tapes they are read
//! from. (FT is exercised by `gen_table2`; its 26M-node tape is too heavy
//! for the default test profile, so it is `#[ignore]`d here.)

use scrutiny_bench::expectations::TABLE2;
use scrutiny_core::{scrutinize, table2_rows, AnalysisReport, ScrutinyApp};
use scrutiny_npb::{Bt, Cg, Ft, Lu, Mg, Sp};
use std::sync::OnceLock;

/// The reports of the five class-S suite apps, analysed once for every
/// test here.
fn suite() -> &'static [AnalysisReport] {
    static SUITE: OnceLock<Vec<AnalysisReport>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let apps: [Box<dyn ScrutinyApp>; 5] = [
            Box::new(Bt::class_s()),
            Box::new(Sp::class_s()),
            Box::new(Cg::class_s()),
            Box::new(Lu::class_s()),
            Box::new(Mg::class_s()),
        ];
        apps.iter()
            .map(|app| scrutinize(app.as_ref()).unwrap())
            .collect()
    })
}

fn suite_report(bench: &str) -> &'static AnalysisReport {
    suite()
        .iter()
        .find(|r| r.app.name == bench)
        .unwrap_or_else(|| panic!("{bench} is not in the suite"))
}

/// `report` reproduces every `TABLE2` row of its benchmark, and prints no
/// Table II row the paper does not have.
fn assert_table2_rows(report: &AnalysisReport, rows: usize) {
    let expected: Vec<_> = TABLE2
        .iter()
        .filter(|e| e.bench == report.app.name)
        .collect();
    assert_eq!(expected.len(), rows, "{} rows in TABLE2", report.app.name);
    assert_eq!(table2_rows(report).len(), rows);
    for e in expected {
        let v = report.var(e.var).unwrap();
        assert_eq!(
            (v.uncritical(), v.total()),
            (e.uncritical, e.total),
            "{}",
            e.label
        );
    }
}

#[test]
fn bt_class_s_counts() {
    assert_table2_rows(suite_report("BT"), 1);
}

#[test]
fn sp_class_s_counts() {
    assert_table2_rows(suite_report("SP"), 1);
}

#[test]
fn cg_class_s_counts() {
    assert_table2_rows(suite_report("CG"), 1);
}

#[test]
fn lu_class_s_counts() {
    assert_table2_rows(suite_report("LU"), 4);
}

#[test]
fn mg_class_s_counts() {
    assert_table2_rows(suite_report("MG"), 2);
}

/// The variable-length tape: at most 14 encoded bytes per node on each
/// class-S tape, and at most 12 over the five (32 in the fixed four-column
/// layout it replaced).
#[test]
fn class_s_tapes_encode_in_at_most_12_bytes_per_node() {
    let (mut bytes, mut nodes) = (0, 0);
    for report in suite() {
        let stats = report.tape_stats;
        assert!(
            stats.bytes <= 14 * stats.nodes,
            "{}: {} B for {} nodes",
            report.app.name,
            stats.bytes,
            stats.nodes
        );
        bytes += stats.bytes;
        nodes += stats.nodes;
    }
    assert!(bytes <= 12 * nodes, "suite: {bytes} B for {nodes} nodes");
}

#[test]
#[ignore = "26M-node tape; run explicitly or via gen_table2"]
fn ft_class_s_counts() {
    assert_table2_rows(&scrutinize(&Ft::class_s()).unwrap(), 1);
}
