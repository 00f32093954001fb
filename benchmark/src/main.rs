//! `scrutiny-benchmark` — the one benchmark every performance claim in
//! this repo is measured with. It drives the checkpoint lifecycle from
//! outside, through public functions only: analyze (`scrutinize_with`),
//! epochs (`EngineHandle::submit` → `wait`) and recover
//! (`RecoveryManager::recover_latest` → `materialize_all`), on four
//! workloads, with every output checked. See `README.md`.

mod compare;
mod metrics;
mod phases;
mod probe;
mod run;
mod stats;
mod timed_backend;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Set-up and I/O failures abort the run without a result; a failed
/// operation or check is counted in the result instead.
type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage:
  scrutiny-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke] [--runs N] [--out FILE]
      One workload in this process; without --workload all four, each in a
      child process. --trace 0 measures the end-to-end metrics with tracing
      off, --trace 1 the per-layer metrics (probes and a traced run). The
      last line of a workload's output is its result as one JSON object.
  scrutiny-benchmark compare A.json B.json
      Medians, ratio, bound and verdict per workload and end-to-end metric
      of two result files written by `run --out`.";

fn parse_run(args: &[String]) -> Res<run::Args> {
    let mut a = run::Args {
        workload: None,
        seed: 1,
        seconds: run::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse()?,
            "--seconds" => a.seconds = value()?.parse()?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--runs" => a.runs = value()?.parse()?,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}").into()),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn dispatch(args: &[String]) -> Res<bool> {
    match args.first().map(String::as_str) {
        Some("run") => run::run(parse_run(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("scrutiny-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
