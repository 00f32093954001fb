//! `run`: one workload in this process, or — without `--workload` — all
//! four, each in a fresh child process (so allocator state and
//! `peak_rss_mb` are per workload), collected into one result file.

use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::phases::{self, Analyses, Budget, Epochs, Recoveries};
use crate::stats::{best_block, mean, median, tail};
use crate::workload::{self, nproc, out_dir, Ops, Rig, Storage, Workload};
use crate::{probe, trace, Res};
use scrutiny_core::Recorder;
use scrutiny_obs::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 26.0;
/// Budget of a `--smoke` run: every phase and check, for no claim.
const SMOKE_SECONDS: f64 = 1.0;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Most samples a phase of a per-layer run takes, so that a traced
/// phase's events all fit the recorder's ring.
const TRACED_SAMPLE_CAP: usize = 1000;
/// Rounds a run's phases are interleaved in: analyze, epochs, recover,
/// and again, each phase a tenth further along its budget — so every
/// phase has samples from the whole length of the run, and a stretch the
/// host left alone is in all three.
const ROUNDS: usize = 10;
/// Events the traced run's recorder holds before it drops the oldest.
const TRACE_RING_EVENTS: usize = 1 << 21;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub out: Option<PathBuf>,
}

/// Split `seconds` over the three phases by the workload's shares. A
/// smoke run drops the workload's floors to one sample per phase. Only
/// the epochs phase of a delta workload has a stride.
fn budgets(w: &Workload, seconds: f64, floors: bool, cap: usize) -> [Budget; 3] {
    [0, 1, 2].map(|i| {
        let (stride, phase) = if i == 1 { w.epochs_stop_at() } else { (1, 0) };
        Budget {
            time: Duration::from_secs_f64(seconds * w.shares[i]),
            floor: if floors { w.floors[i] } else { 1 },
            cap,
            stride,
            phase,
        }
    })
}

/// Forget the set-up's memory high-water mark, so that `peak_rss_mb`
/// is the peak of the measured phases (a bounded-tape analysis must not
/// inherit the unbounded reference analysis's peak). Linux resets
/// `VmHWM` on this write; where it is refused the lifetime peak stands.
fn reset_peak_rss() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("cannot reset VmHWM: peak_rss_mb will include set-up");
    }
}

fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().strip_suffix("kB"))
        .ok_or("no VmHWM in /proc/self/status")?
        .trim()
        .parse()?;
    Ok(kb * 1024.0 / 1e6)
}

fn med(samples: &[f64], what: &str) -> Res<f64> {
    if samples.is_empty() {
        return Err(format!("no {what} succeeded").into());
    }
    Ok(median(samples))
}

/// [`best_block`] of a phase's samples, in blocks of whole `unit`s.
fn best(samples: &[f64], unit: usize, f: fn(&[f64]) -> f64, what: &str) -> Res<f64> {
    if samples.is_empty() {
        return Err(format!("no {what} succeeded").into());
    }
    Ok(best_block(samples, unit, f))
}

/// What one rig measured: its set-ups and the three phases.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    state_bytes: f64,
    analyses: Analyses,
    epochs: Epochs,
    /// Requests the daemon counted during the epochs phase (0 without a
    /// daemon or with its recorder off).
    wire_requests: u64,
    recoveries: Recoveries,
}

/// How one rig is measured: set-ups before the phases, seconds the
/// phases take in all, and the most samples per phase.
#[derive(Clone, Copy)]
struct Plan {
    setups: usize,
    seconds: f64,
    cap: usize,
}

/// Set up and measure the three phases on the last rig set up. The
/// caller owes the rig its exit check.
fn measure(
    w: &'static Workload,
    a: &Args,
    plan: Plan,
    rec: &Recorder,
    ops: &mut Ops,
) -> Res<(Rig, Measured)> {
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..plan.setups {
        drop(rig.take()); // the next set-up reuses the scratch directory
        let t0 = Instant::now();
        rig = Some(Rig::set_up(w, a.seed, rec, ops)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    reset_peak_rss();
    let [analyze, epochs, recover] = budgets(w, plan.seconds, !a.smoke, plan.cap);
    let mut m = Measured {
        setup_s,
        state_bytes: rig.state_bytes as f64,
        ..Default::default()
    };
    let requests = rec.counter("scrutinyd.requests");
    for round in 1..=ROUNDS {
        let part = round as f64 / ROUNDS as f64;
        phases::analyze(&rig, analyze, part, &mut m.analyses, ops);
        let requests_before = requests.get();
        phases::epochs(&mut rig, epochs, part, &mut m.epochs, ops);
        m.wire_requests += requests.get() - requests_before;
        phases::recover(&rig, recover, part, &mut m.recoveries, ops)?;
    }
    Ok((rig, m))
}

/// The exit check, then tear the rig down: once this returns the engine
/// has drained and the daemon has joined, so every span is closed.
fn finish(mut rig: Rig, ops: &mut Ops) {
    rig.cycle_and_verify(ops);
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn end_to_end(w: &'static Workload, a: &Args, ops: &mut Ops) -> Res<Values> {
    let plan = Plan {
        setups: if a.smoke { 1 } else { SETUPS },
        seconds: a.seconds,
        cap: usize::MAX,
    };
    let (rig, m) = measure(w, a, plan, &Recorder::disabled(), ops)?;
    finish(rig, ops);
    let (passes, epochs, recoveries) = (
        &m.analyses.pass_ms,
        &m.epochs.epoch_ms,
        &m.recoveries.recover_ms,
    );
    let mut v = Values::default();
    v.set_n("setup_s", median(&m.setup_s), m.setup_s.len());
    v.set_n(
        "analyze_ms",
        best(passes, 1, median, "analysis pass")?,
        passes.len(),
    );
    // Epochs go in blocks of whole rebase periods: every block then has
    // the same share of base epochs, and its mean is a period's mean.
    v.set_n(
        "epoch_p50_ms",
        best(epochs, w.period(), median, "epoch")?,
        epochs.len(),
    );
    v.set_n(
        "ckpt_mb_s",
        m.state_bytes / 1e6 / (best(epochs, w.period(), mean, "epoch")? / 1e3),
        epochs.len(),
    );
    v.set_n(
        "recover_p50_ms",
        best(recoveries, 1, median, "recovery")?,
        recoveries.len(),
    );
    v.set(
        "stored_per_state_byte",
        m.epochs.put_bytes_per_epoch(w.period()) / m.state_bytes,
    );
    v.set("peak_rss_mb", peak_rss_mb()?);
    Ok(v)
}

/// `--trace 1`: the per-layer metrics — untraced phases and the probes
/// on one rig, then the same phases under one enabled recorder on a
/// second, whose set-up is the traced full walk. Each takes a share of
/// `--seconds`, so the run is as long as an end-to-end one.
fn per_layer(w: &'static Workload, a: &Args, ops: &mut Ops) -> Res<Values> {
    let mut v = Values::default();
    let share = a.seconds * 0.3;
    let plan = Plan {
        setups: 1,
        seconds: share,
        cap: TRACED_SAMPLE_CAP,
    };

    let (rig, untraced) = measure(w, a, plan, &Recorder::disabled(), ops)?;
    probe::run(
        &rig,
        Duration::from_secs_f64(share),
        med(&untraced.analyses.pass_ms, "analysis pass")?,
        med(&untraced.epochs.submit_us, "epoch")?,
        &mut v,
    )?;
    finish(rig, ops);
    engine_metrics(&untraced, &mut v)?;

    let rec = Recorder::with_capacity(TRACE_RING_EVENTS);
    let (rig, traced) = measure(w, a, plan, &rec, ops)?;
    finish(rig, ops);
    let snap = rec.snapshot();

    let overhead = |traced: &[f64], base: &[f64], what: &str| -> Res<f64> {
        let base = med(base, what)?;
        Ok(100.0 * (med(traced, what)? - base) / base)
    };
    v.set(
        "obs.traced_epoch_overhead_pct",
        overhead(&traced.epochs.epoch_ms, &untraced.epochs.epoch_ms, "epoch")?,
    );
    v.set(
        "obs.traced_analyze_overhead_pct",
        overhead(
            &traced.analyses.pass_ms,
            &untraced.analyses.pass_ms,
            "analysis pass",
        )?,
    );
    v.set("obs.events", snap.events.len() as f64);
    v.set("obs.dropped_events", snap.dropped_events as f64);
    v.set(
        "engine.publish_failures",
        snap.counter("engine.publish_failures").unwrap_or(0) as f64,
    );
    if w.storage == Storage::Remote {
        v.set(
            "scrutinyd.requests_per_epoch",
            traced.wire_requests as f64 / traced.epochs.progress.attempted as f64,
        );
        v.set(
            "scrutinyd.rejections",
            snap.counter("scrutinyd.rejections").unwrap_or(0) as f64,
        );
    }

    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("trace_{}.jsonl", w.name));
    snap.write_jsonl(&path)?;
    let spans = snap.spans();
    let (rows, wall_us) = trace::driver_phases(&spans);
    println!("driver thread of the traced run ({}):", path.display());
    for (name, us) in &rows {
        println!("  {name:<24} {:>12.3} ms", *us as f64 / 1e3);
    }
    let attributed: u64 = rows.values().sum();
    v.set("trace.wall_ms", wall_us as f64 / 1e3);
    v.set(
        "trace.unattributed_pct",
        100.0 * wall_us.saturating_sub(attributed) as f64 / wall_us.max(1) as f64,
    );
    let by_layer = trace::self_time_by_layer(&spans);
    for d in PER_LAYER {
        if let Some(layer) = d
            .name
            .strip_prefix("trace.")
            .and_then(|n| n.strip_suffix(".self_ms"))
        {
            let us = by_layer.get(layer).copied().unwrap_or(0);
            v.set(d.name, us as f64 / 1e3);
        }
    }
    Ok(v)
}

/// The `engine` layer from outside: the benchmark's own timing around
/// `submit` / `wait` / `recover_latest`, and the `TimedBackend`'s counts.
fn engine_metrics(m: &Measured, v: &mut Values) -> Res<()> {
    let e = &m.epochs;
    let n = e.epoch_ms.len();
    let per_epoch = |x: f64| x / e.progress.attempted as f64;
    v.set_n("engine.submit_p50_us", med(&e.submit_us, "epoch")?, n);
    v.set_n("engine.wait_p50_ms", med(&e.wait_ms, "epoch")?, n);
    if let Some((pct, value)) = tail(&e.epoch_ms) {
        v.set_n("engine.epoch_tail_ms", value, n);
        v.set("engine.epoch_tail_pct", pct);
    }
    let c = e.counts;
    v.set(
        "engine.backend_put_ms_per_epoch",
        per_epoch(c.put.busy_ms()),
    );
    v.set(
        "engine.backend_put_calls_per_epoch",
        per_epoch(c.put.calls as f64),
    );
    v.set(
        "engine.backend_put_bytes_per_epoch",
        per_epoch(c.put.bytes as f64),
    );
    v.set(
        "engine.backend_list_calls_per_epoch",
        per_epoch(c.list.calls as f64),
    );
    v.set(
        "engine.backend_delete_calls_per_epoch",
        per_epoch(c.delete.calls as f64),
    );
    v.set(
        "engine.nonbackend_ms_per_epoch",
        per_epoch(e.epoch_ms.iter().sum::<f64>() - c.put_inflight_ns as f64 / 1e6),
    );

    let r = &m.recoveries;
    let per_recover = |x: f64| x / r.progress.attempted as f64;
    v.set_n(
        "engine.recover_scan_p50_ms",
        med(&r.scan_ms, "recovery")?,
        r.scan_ms.len(),
    );
    v.set_n(
        "core.materialize_p50_ms",
        med(&r.materialize_ms, "recovery")?,
        r.materialize_ms.len(),
    );
    v.set(
        "engine.backend_get_calls_per_recover",
        per_recover(r.counts.get.calls as f64),
    );
    v.set(
        "engine.backend_get_bytes_per_recover",
        per_recover(r.counts.get.bytes as f64),
    );
    v.set(
        "engine.backend_get_ms_per_recover",
        per_recover(r.counts.get.busy_ms()),
    );
    v.set("engine.recover_rejected", per_recover(r.rejected as f64));
    v.set("bench.analyze_samples", m.analyses.pass_ms.len() as f64);
    v.set("bench.epoch_samples", n as f64);
    v.set("bench.recover_samples", r.recover_ms.len() as f64);
    Ok(())
}

fn metrics_json(values: &[(&MetricDef, crate::metrics::Value)], with_n: bool) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(d, v)| {
                let mut fields = vec![
                    ("value".to_string(), Json::F64(v.value)),
                    ("unit".to_string(), Json::Str(d.unit.to_string())),
                ];
                if let (true, Some(n)) = (with_n, v.n) {
                    fields.push(("n".to_string(), Json::U64(n as u64)));
                }
                (d.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Run one workload in this process. Prints every metric by name with
/// its unit and, as the last line, the result object. `Ok(false)` when a
/// check failed.
fn run_workload(w: &'static Workload, a: &Args) -> Res<bool> {
    let mut ops = Ops::default();
    let (values, defs) = if a.trace {
        (per_layer(w, a, &mut ops)?, PER_LAYER)
    } else {
        (end_to_end(w, a, &mut ops)?, END_TO_END)
    };
    let values = values.complete(defs);
    let correct = ops.failed == 0;

    println!(
        "{} seed={} seconds={} trace={}{}\n  ({})",
        w.name,
        a.seed,
        a.seconds,
        a.trace as u8,
        if a.smoke { " smoke" } else { "" },
        w.why
    );
    for (d, v) in &values {
        let n = v.n.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<40} {:>16.4} {}{n}", d.name, v.value, d.unit);
    }
    println!("  ops={} failed_ops={}", ops.attempted, ops.failed);
    for f in &ops.failures {
        eprintln!("FAILED: {f}");
    }

    let result = |with_n: bool| {
        vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::U64(ops.attempted)),
            ("failed".to_string(), Json::U64(ops.failed)),
            ("metrics".to_string(), metrics_json(&values, with_n)),
        ]
    };
    if let Some(path) = &a.out {
        let mut detail = vec![
            ("workload".to_string(), Json::Str(w.name.to_string())),
            ("seed".to_string(), Json::U64(a.seed)),
            ("trace".to_string(), Json::Bool(a.trace)),
            (
                "budgets_s".to_string(),
                Json::Arr(w.shares.iter().map(|s| Json::F64(s * a.seconds)).collect()),
            ),
        ];
        detail.extend(result(true));
        std::fs::write(path, json::encode(&Json::Obj(detail)))?;
    }
    println!("{}", json::encode(&Json::Obj(result(false))));
    Ok(correct)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run every workload `a.runs` times (seeds `seed`, `seed + 1`, …), each
/// in a fresh child process, and write one result file.
fn run_all(a: &Args) -> Res<bool> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all(out_dir())?;
    let part = out_dir().join(format!("part-{}.json", std::process::id()));
    let mut runs = Vec::new();
    let mut all_correct = true;
    let t0 = Instant::now();
    for run in 0..a.runs as u64 {
        for w in workload::ALL {
            for trace in [false, true].into_iter().take(1 + a.trace as usize) {
                let mut child = Command::new(&exe);
                child
                    .args(["run", "--workload", w.name])
                    .args(["--seed", &(a.seed + run).to_string()])
                    .args(["--seconds", &a.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&part);
                if a.smoke {
                    child.arg("--smoke");
                }
                // The child prints its own table; only its detail file
                // is read back.
                let status = child.status()?;
                all_correct &= status.success();
                if let Ok(text) = std::fs::read_to_string(&part) {
                    runs.push(json::parse(&text)?);
                    std::fs::remove_file(&part)?;
                }
            }
        }
    }
    println!(
        "{} workload runs in {:.1} s",
        runs.len(),
        t0.elapsed().as_secs_f64()
    );
    let file = Json::Obj(vec![
        ("schema".to_string(), Json::U64(1)),
        (
            "git_commit".to_string(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_string(),
            Json::Str(command_line("rustc", &["-V"])),
        ),
        ("nproc".to_string(), Json::U64(nproc() as u64)),
        ("seed".to_string(), Json::U64(a.seed)),
        ("seconds".to_string(), Json::F64(a.seconds)),
        ("smoke".to_string(), Json::Bool(a.smoke)),
        ("runs".to_string(), Json::Arr(runs)),
    ]);
    if let Some(path) = &a.out {
        std::fs::write(path, json::encode(&file))?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}

/// Entry point of the `run` subcommand; `Ok(false)` when a check failed.
pub fn run(mut a: Args) -> Res<bool> {
    if a.smoke {
        a.seconds = SMOKE_SECONDS;
    }
    match a.workload.clone() {
        Some(name) => {
            let w = workload::find(&name).ok_or_else(|| {
                let known: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; known: {known:?}")
            })?;
            run_workload(w, &a)
        }
        None => run_all(&a),
    }
}
