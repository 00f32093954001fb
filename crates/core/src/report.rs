//! Text renderings of the paper's tables.

use crate::analysis::AnalysisReport;
use crate::plan::{plans_for, Policy};
use crate::spec::AppSpec;
use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{CkptError, VarPlan, VarRecord};

/// Table I: manually identified variables necessary for checkpointing.
pub fn format_table1(specs: &[AppSpec]) -> String {
    let mut out = String::from("Table I: variables necessary for checkpointing (class S)\n");
    out.push_str(&format!(
        "{:<6} {}\n",
        "Name", "Variables and their data structures"
    ));
    for app in specs {
        let decls: Vec<String> = app.vars.iter().map(|v| v.declaration()).collect();
        out.push_str(&format!("{:<6} {}\n", app.name, decls.join(", ")));
    }
    out
}

/// One row of Table II.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// `Benchmark(variable)` label, e.g. `BT(u)`.
    pub label: String,
    /// Name of the variable the row was built from, e.g. `u`.
    pub var: String,
    /// Uncritical element count.
    pub uncritical: usize,
    /// Total element count.
    pub total: usize,
}

impl Table2Row {
    /// Uncritical rate in percent.
    pub fn rate_pct(&self) -> f64 {
        100.0 * self.uncritical as f64 / self.total as f64
    }
}

/// Extract Table II rows (float array variables only, as in the paper —
/// integer scalars are control state and always critical).
pub fn table2_rows(report: &AnalysisReport) -> Vec<Table2Row> {
    report
        .vars
        .iter()
        .filter(|v| v.spec.dtype != scrutiny_ckpt::DType::I64 && v.total() > 1)
        .map(|v| Table2Row {
            label: format!("{}({})", report.app.name, v.spec.name),
            var: v.spec.name.clone(),
            uncritical: v.uncritical(),
            total: v.total(),
        })
        .collect()
}

/// Render Table II.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from("Table II: number of uncritical elements\n");
    out.push_str(&format!(
        "{:<16} {:>10} {:>8} {:>15}\n",
        "Benchmark(var)", "Uncritical", "Total", "Uncritical rate"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>10} {:>8} {:>14.1}%\n",
            r.label,
            r.uncritical,
            r.total,
            r.rate_pct()
        ));
    }
    out
}

/// One row of Table III.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Benchmark name.
    pub bench: String,
    /// Full-checkpoint payload in KiB (paper's "Original").
    pub original_kib: f64,
    /// Pruned-checkpoint payload in KiB (paper's "Optimized").
    pub optimized_kib: f64,
    /// Auxiliary-file encoded run bytes (each critical run's LEB128 gap
    /// and length) in KiB — the cost the paper's table leaves implicit.
    pub aux_kib: f64,
}

impl Table3Row {
    /// Fraction of payload storage saved, in percent.
    pub fn saved_pct(&self) -> f64 {
        100.0 * (1.0 - self.optimized_kib / self.original_kib)
    }
}

/// Compute a Table III row from captured state and an analysis report.
pub fn table3_row(report: &AnalysisReport, captured: &[VarRecord]) -> Result<Table3Row, CkptError> {
    let full_plans: Vec<VarPlan> = captured.iter().map(|_| VarPlan::Full).collect();
    let pruned_plans = plans_for(report, Policy::PrunedValue);
    let full = serialize(captured, &full_plans)?.breakdown;
    let pruned = serialize(captured, &pruned_plans)?.breakdown;
    Ok(Table3Row {
        bench: report.app.name.clone(),
        original_kib: full.payload_kib(),
        optimized_kib: pruned.payload_kib(),
        aux_kib: pruned.aux_bytes as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::scrutinize;
    use crate::restart::capture_state;
    use crate::spec::VarSpec;
    use crate::tiny::Heat1d;

    #[test]
    fn table1_lists_declarations() {
        let spec = AppSpec {
            name: "BT".into(),
            class: "S".into(),
            vars: vec![
                VarSpec::f64("u", &[12, 13, 13, 5]),
                VarSpec::int_scalar("step"),
            ],
        };
        let s = format_table1(&[spec]);
        assert!(s.contains("BT"));
        assert!(s.contains("double u[12][13][13][5]"));
        assert!(s.contains("int step"));
    }

    #[test]
    fn table2_rows_skip_scalars() {
        let app = Heat1d::new(16, 8, 4);
        let report = scrutinize(&app).unwrap();
        let rows = table2_rows(&report);
        assert_eq!(rows.len(), 2); // temp + workspace; `it` excluded
        assert_eq!(rows[0].label, "HEAT1D(temp)");
        assert_eq!(rows[0].uncritical, 2);
        let rendered = format_table2(&rows);
        assert!(rendered.contains("HEAT1D(temp)"));
    }

    #[test]
    fn table3_row_reflects_savings() {
        let app = Heat1d::new(16, 8, 4);
        let report = scrutinize(&app).unwrap();
        let captured = capture_state(&app);
        let row = table3_row(&report, &captured).unwrap();
        assert!(row.optimized_kib < row.original_kib);
        assert!(row.saved_pct() > 0.0);
    }
}
