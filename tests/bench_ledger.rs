//! The checked-in benchmark ledger: every `BENCH_*.json` at the repo root
//! is one result file of the benchmark `BENCHMARK.json` declares, written
//! by its `run --out`. Each must parse, be schema 1, record only runs that
//! were correct with no failed operation, and name only workloads and
//! metrics `BENCHMARK.json` declares. Nothing here is gated on a timing:
//! the ledger is a record of the host it ran on, not a bound.

use scrutiny_obs::json::{parse, Json};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn read(path: &Path) -> Json {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

/// The `name` of every entry of the array at `key`.
fn names(decl: &Json, key: &str) -> BTreeSet<String> {
    let list = decl.get(key).and_then(Json::as_arr).expect(key);
    list.iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_ledger_file_records_correct_runs_of_declared_workloads_and_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let decl = read(&root.join("BENCHMARK.json"));
    let workloads = names(&decl, "workloads");
    let mut metrics = names(&decl, "end_to_end");
    metrics.extend(names(&decl, "per_layer"));

    let mut files: Vec<_> = fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json at the repo root");
    for file in files {
        let ledger = read(&root.join(&file));
        assert_eq!(
            ledger.get("schema").and_then(Json::as_u64),
            Some(1),
            "{file}"
        );
        let runs = ledger.get("runs").and_then(Json::as_arr).expect("runs");
        assert!(!runs.is_empty(), "{file}: no runs");
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .expect("workload");
            let what = format!("{file}: {workload}");
            assert!(
                workloads.contains(workload),
                "{what}: not in BENCHMARK.json"
            );
            assert_eq!(
                run.get("correct").and_then(Json::as_bool),
                Some(true),
                "{what}"
            );
            assert_eq!(run.get("failed").and_then(Json::as_u64), Some(0), "{what}");
            let Some(Json::Obj(values)) = run.get("metrics") else {
                panic!("{what}: no metrics object");
            };
            for (metric, _) in values {
                assert!(
                    metrics.contains(metric),
                    "{what}: {metric} not in BENCHMARK.json"
                );
            }
        }
    }
}
