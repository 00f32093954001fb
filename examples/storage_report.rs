//! Storage comparison: full vs AD-pruned vs a dirty-page delta of the
//! AD-pruned image.
//!
//! Run with: `cargo run --release --example storage_report`

use scrutiny_ckpt::delta::diff_images;
use scrutiny_ckpt::{serialize, DeltaPolicy};
use scrutiny_core::plan::plans_for;
use scrutiny_core::restart::capture_state;
use scrutiny_core::{scrutinize, table3_row, Policy, ScrutinyApp};
use scrutiny_npb::{perturb_localized, Bt, Cg, Mg};

fn main() {
    println!(
        "{:<6} {:>11} {:>11} {:>16}",
        "Bench", "full", "AD-pruned", "delta (2nd ckpt)"
    );
    let apps: Vec<Box<dyn ScrutinyApp>> = vec![
        Box::new(Bt::class_s()),
        Box::new(Mg::class_s()),
        Box::new(Cg::class_s()),
    ];
    for app in &apps {
        let analysis = scrutinize(app.as_ref()).unwrap();
        let mut vars = capture_state(app.as_ref());
        let row = table3_row(&analysis, &vars).expect("in-memory");

        // The path the engine's delta mode takes: the second epoch — a
        // localized update of every variable — stores only the pages of
        // the AD-pruned data image that changed. Temporal redundancy,
        // orthogonal to the paper's *semantic* pruning; the two compose.
        let plans = plans_for(&analysis, Policy::PrunedValue);
        let base = serialize(&vars, &plans).expect("in-memory").data;
        perturb_localized(&mut vars, 1);
        let next = serialize(&vars, &plans).expect("in-memory").data;
        let page_bytes = DeltaPolicy::default().page_bytes;
        let (delta, stats) = diff_images(&base, &next, 0, page_bytes).expect("in-memory");

        println!(
            "{:<6} {:>9.1}kb {:>9.1}kb {:>11.1}kb ({}/{} pages)",
            analysis.app.name,
            row.original_kib,
            row.optimized_kib,
            delta.len() as f64 / 1024.0,
            stats.dirty_pages,
            stats.total_pages,
        );
    }
    println!("\n(the delta column is a second epoch that changed one 1/16th window of");
    println!(" every variable; AD pruning saves on every epoch, the delta on top of it)");
}
