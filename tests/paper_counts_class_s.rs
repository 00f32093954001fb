//! Regression tests pinning the paper's Table II numbers at class S, read
//! from the one copy of the table, `scrutiny_bench::expectations::TABLE2`
//! (which carries the size-consistent `LU(rho_i)` / `LU(rsd)` assignment).
//! (FT is exercised by `gen_table2`; its 26M-node tape is too heavy for
//! the default test profile, so it is `#[ignore]`d here.)

use scrutiny_bench::expectations::TABLE2;
use scrutiny_core::{scrutinize, table2_rows, ScrutinyApp};
use scrutiny_npb::{Bt, Cg, Ft, Lu, Mg, Sp};

/// `app`'s analysis reproduces every `TABLE2` row of its benchmark, and
/// prints no Table II row the paper does not have.
fn assert_table2_rows(app: &dyn ScrutinyApp, rows: usize) {
    let report = scrutinize(app).unwrap();
    let expected: Vec<_> = TABLE2
        .iter()
        .filter(|e| e.bench == report.app.name)
        .collect();
    assert_eq!(expected.len(), rows, "{} rows in TABLE2", report.app.name);
    assert_eq!(table2_rows(&report).len(), rows);
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
    assert_table2_rows(&Bt::class_s(), 1);
}

#[test]
fn sp_class_s_counts() {
    assert_table2_rows(&Sp::class_s(), 1);
}

#[test]
fn cg_class_s_counts() {
    assert_table2_rows(&Cg::class_s(), 1);
}

#[test]
fn lu_class_s_counts() {
    assert_table2_rows(&Lu::class_s(), 4);
}

#[test]
fn mg_class_s_counts() {
    assert_table2_rows(&Mg::class_s(), 2);
}

#[test]
#[ignore = "26M-node tape; run explicitly or via gen_table2"]
fn ft_class_s_counts() {
    assert_table2_rows(&Ft::class_s(), 1);
}
