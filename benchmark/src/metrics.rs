//! The metric registry — every name the benchmark prints, with its unit,
//! its direction and (end to end) the bound by which its median may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! repo root lists the same names; a unit test keeps the two equal.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One registered metric. `bound` is `Some` for end-to-end metrics only.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the checkpoint lifecycle feels, per workload. Always
/// measured with tracing off; the four timings are read from the run's
/// best block (`stats::best_block`). The timing bounds are as wide as a
/// bound may be: a neighbour on this sandbox's host slows a whole run by
/// tens of percent now and then (see README, "Baseline"), and a bound
/// narrower than the run-to-run spread resolves nothing.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("analyze_ms", "ms", Lower, 0.25),
    e2e("epoch_p50_ms", "ms", Lower, 0.25),
    e2e("ckpt_mb_s", "MB/s", Higher, 0.25),
    e2e("recover_p50_ms", "ms", Lower, 0.25),
    e2e("stored_per_state_byte", "ratio", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single-layer metrics, named `<layer>.<what>`; the layers are the
/// crates on the walk plus the benchmark's own `bench.` and `trace.`
/// bookkeeping. A metric whose kernel a workload's path never calls
/// reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // ad — one recording and each sweep per analysis app, summed.
    layer("ad.record_ms", "ms", Lower),
    layer("ad.record_mnodes_s", "Mnodes/s", Higher),
    layer("ad.tape_nodes", "count", Lower),
    layer("ad.tape_segments", "count", Lower),
    layer("ad.tape_mb", "MB", Lower),
    layer("ad.sweep_value_ms", "ms", Lower),
    layer("ad.sweep_reach_ms", "ms", Lower),
    layer("ad.sweep_datadep_ms", "ms", Lower),
    layer("ad.sweep_value_serial_ms", "ms", Lower),
    layer("ad.sweep_par_speedup", "x", Higher),
    layer("ad.sweep_us_per_segment", "us", Lower),
    layer("ad.peak_resident_mb", "MB", Lower),
    layer("ad.replayed_segments", "count", Lower),
    layer("ad.replay_ratio", "ratio", Lower),
    // core
    layer("core.analysis_other_ms", "ms", Lower),
    layer("core.plan_us", "us", Lower),
    layer("core.materialize_p50_ms", "ms", Lower),
    layer("core.uncritical_elems", "count", Higher),
    layer("core.restart_verify_ms", "ms", Lower),
    // npb
    layer("npb.run_f64_ms", "ms", Lower),
    layer("npb.ad_slowdown", "x", Lower),
    // ckpt — single-threaded kernels on the workload's own state.
    layer("ckpt.serialize_mb_s", "MB/s", Higher),
    layer("ckpt.shard_serialize_mb_s", "MB/s", Higher),
    layer("ckpt.crc_mb_s", "MB/s", Higher),
    layer("ckpt.diff_mb_s", "MB/s", Higher),
    layer("ckpt.dirty_pages_pct", "%", Lower),
    layer("ckpt.apply_delta_mb_s", "MB/s", Higher),
    layer("ckpt.compress_mb_s", "MB/s", Higher),
    layer("ckpt.decompress_mb_s", "MB/s", Higher),
    layer("ckpt.compress_ratio", "ratio", Lower),
    layer("ckpt.restore_mb_s", "MB/s", Higher),
    layer("ckpt.restore_serial_mb_s", "MB/s", Higher),
    // engine — spans around submit / wait / recover_latest, and the
    // pass-through TimedBackend's counts.
    layer("engine.submit_p50_us", "us", Lower),
    layer("engine.submit_pct_of_blocking_save", "%", Lower),
    layer("engine.wait_p50_ms", "ms", Lower),
    layer("engine.epoch_tail_ms", "ms", Lower),
    layer("engine.epoch_tail_pct", "%", Higher),
    layer("engine.backend_put_ms_per_epoch", "ms", Lower),
    layer("engine.backend_put_calls_per_epoch", "count", Lower),
    layer("engine.backend_put_bytes_per_epoch", "B", Lower),
    layer("engine.backend_list_calls_per_epoch", "count", Lower),
    layer("engine.backend_delete_calls_per_epoch", "count", Lower),
    layer("engine.nonbackend_ms_per_epoch", "ms", Lower),
    layer("engine.recover_scan_p50_ms", "ms", Lower),
    layer("engine.backend_get_calls_per_recover", "count", Lower),
    layer("engine.backend_get_bytes_per_recover", "B", Lower),
    layer("engine.backend_get_ms_per_recover", "ms", Lower),
    layer("engine.recover_rejected", "count", Lower),
    layer("engine.publish_failures", "count", Lower),
    // scrutinyd — probed against the workload's live daemon.
    layer("scrutinyd.ping_p50_us", "us", Lower),
    layer("scrutinyd.ping_p99_us", "us", Lower),
    layer("scrutinyd.put_small_p50_us", "us", Lower),
    layer("scrutinyd.put_small_p99_us", "us", Lower),
    layer("scrutinyd.put_4mib_mb_s", "MB/s", Higher),
    layer("scrutinyd.get_4mib_mb_s", "MB/s", Higher),
    layer("scrutinyd.requests_per_epoch", "count", Lower),
    layer("scrutinyd.rejections", "count", Lower),
    // obs — traced minus untraced.
    layer("obs.traced_epoch_overhead_pct", "%", Lower),
    layer("obs.traced_analyze_overhead_pct", "%", Lower),
    layer("obs.events", "count", Lower),
    layer("obs.dropped_events", "count", Lower),
    // trace — the traced run's attribution.
    layer("trace.wall_ms", "ms", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.ad.self_ms", "ms", Lower),
    layer("trace.core.self_ms", "ms", Lower),
    layer("trace.ckpt.self_ms", "ms", Lower),
    layer("trace.engine.self_ms", "ms", Lower),
    layer("trace.scrutinyd.self_ms", "ms", Lower),
    layer("trace.npb.self_ms", "ms", Lower),
    layer("trace.faultinj.self_ms", "ms", Lower),
    layer("trace.bench.self_ms", "ms", Lower),
    // bench — how many samples the untraced medians rest on.
    layer("bench.analyze_samples", "count", Higher),
    layer("bench.epoch_samples", "count", Higher),
    layer("bench.recover_samples", "count", Higher),
];

/// The registered definition of `name` in `defs`.
pub fn def<'a>(defs: &'a [MetricDef], name: &str) -> Option<&'a MetricDef> {
    defs.iter().find(|d| d.name == name)
}

/// One measured value; `n` is the sample count a median rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: Option<usize>,
}

/// Values measured in one run, by registered name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, Value>);

impl Values {
    /// Record `value` for the registered metric `name`. Panics on an
    /// unregistered name or a non-finite value — both are bugs in the
    /// benchmark, not measurements.
    pub fn set(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    /// [`Values::set`] for a median over `n` samples.
    pub fn set_n(&mut self, name: &str, value: f64, n: usize) {
        self.insert(name, value, Some(n));
    }

    fn insert(&mut self, name: &str, value: f64, n: Option<usize>) {
        let d = def(END_TO_END, name)
            .or_else(|| def(PER_LAYER, name))
            .unwrap_or_else(|| panic!("metric {name:?} is not registered"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(d.name, Value { value, n });
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// Every metric of `defs` in registry order; a per-layer metric this
    /// workload's path never produced reads 0. A missing end-to-end
    /// metric is a bug.
    pub fn complete<'a>(&self, defs: &'a [MetricDef]) -> Vec<(&'a MetricDef, Value)> {
        defs.iter()
            .map(|d| {
                let v = self.get(d.name).unwrap_or_else(|| {
                    assert!(d.bound.is_none(), "end-to-end metric {} missing", d.name);
                    Value {
                        value: 0.0,
                        n: None,
                    }
                });
                (d, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_obs::json::{self, Json};
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn registered(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }
                    .to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn registry_and_benchmark_json_list_the_same_metrics() {
        let m = manifest();
        assert_eq!(listed(&m, "end_to_end"), registered(END_TO_END));
        assert_eq!(listed(&m, "per_layer"), registered(PER_LAYER));
        let workloads: Vec<String> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = crate::workload::ALL
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "bad name {:?}", d.name);
            assert!(ok_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} registered twice", d.name);
        }
        for w in crate::workload::ALL {
            assert!(ok_name(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(def(END_TO_END, "setup_s").is_some());
        assert!(PER_LAYER.len() <= 128);
    }
}
