//! The four workloads and the rig one of them runs on.
//!
//! Every workload checkpoints the same state in its epochs and recover
//! phases — MG class S (`u`, `r`, `it`; 726 KB, the paper's 19 % best
//! case) — so the storage paths compare directly. They differ in what
//! the analysis does and in which path the bytes take.

use crate::timed_backend::TimedBackend;
use crate::Res;
use scrutiny_ckpt::format::crc32;
use scrutiny_ckpt::names::{self, Tenant};
use scrutiny_ckpt::{serialize_with, CodecConfig, StorageBreakdown, VarPlan, VarRecord};
use scrutiny_core::plan::plans_for;
use scrutiny_core::restart::{capture_state, materialize_all};
use scrutiny_core::{
    codec_for, scrutinize_with, verify_restart_from, AnalysisReport, Analyzer, DeltaPolicy,
    DirBackend, EngineConfig, EngineHandle, FillPolicy, Layout, MemBackend, Policy, Recorder,
    Recovered, RecoveryConfig, RecoveryManager, RestartConfig, ScrutinyApp, ScrutinyOptions,
    StorageBackend, TapeCheckpointConfig,
};
use scrutiny_npb::{perturb_localized, Bt, Cg, Lu, Mg, Sp};
use scrutiny_obs::span;
use scrutinyd::{Daemon, DaemonConfig, RemoteBackend};
use std::path::PathBuf;
use std::sync::Arc;

/// Cores of this machine: what the probes of the parallel kernels run
/// at, and what the result file records.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What every parallel knob of the measured phases is set to: threads
/// per reverse sweep, engine workers, restore threads. The sandbox is two
/// cores of a shared host, and a neighbour's load takes one of them for
/// tens of seconds at a time; a phase that fans out over both then waits
/// for the thread that lost its core, so the same code measured 20 %
/// apart from run to run where the single-threaded phase measured 2–7 %.
/// Nor was there a gain to lose: sweeps at `threads = 2` took 40 % longer
/// than at 1 (an unbounded analysis already runs its sweeps concurrently
/// with each other), two workers published a sharded epoch no sooner
/// than one, and a two-thread restore was 11 % faster. The parallel
/// kernels are measured by the probes (`ad.sweep_par_speedup`,
/// `ckpt.restore_mb_s`), whose metrics carry no bound.
pub const THREADS: usize = 1;

/// An NPB class-S kernel with its Table II uncritical counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Bt,
    Sp,
    Lu,
    Cg,
    Mg,
}

impl App {
    pub fn build(self) -> Box<dyn ScrutinyApp> {
        match self {
            App::Bt => Box::new(Bt::class_s()),
            App::Sp => Box::new(Sp::class_s()),
            App::Lu => Box::new(Lu::class_s()),
            App::Cg => Box::new(Cg::class_s()),
            App::Mg => Box::new(Mg::class_s()),
        }
    }

    /// The paper's Table II: uncritical elements per variable (with the
    /// size-consistent assignment of LU's `rho_i` / `rsd` rows).
    pub fn table2(self) -> &'static [(&'static str, usize)] {
        match self {
            App::Bt | App::Sp => &[("u", 1500)],
            App::Lu => &[("u", 1628), ("qs", 300), ("rho_i", 300), ("rsd", 1500)],
            App::Cg => &[("x", 2)],
            App::Mg => &[("u", 7176), ("r", 10543)],
        }
    }
}

/// Where the checkpoint bytes go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// `MemBackend`: no byte leaves memory.
    Mem,
    /// `DirBackend` in a scratch directory.
    Dir,
    /// `RemoteBackend` to an in-process `scrutinyd` on loopback TCP over
    /// a `DirBackend` pool.
    Remote,
}

/// One benchmark workload. `shares` splits the run's `--seconds` over
/// the analyze / epochs / recover phases; `floors` are the least sample
/// counts each phase takes however slow the program is.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub apps: &'static [App],
    pub analyzer: Analyzer,
    /// Bounded tape residency: `with_ncheckpoints(2)`.
    pub bounded: bool,
    pub storage: Storage,
    pub sharded: bool,
    /// Delta chains, `rebase_every: 8`, with a localized perturbation
    /// between epochs; otherwise every epoch submits the same state.
    pub delta: bool,
    pub policy: Policy,
    /// Flip a payload byte of the newest version before recovering.
    pub fault: bool,
    pub shares: [f64; 3],
    pub floors: [usize; 3],
}

const REBASE_EVERY: usize = 8;
/// Newest versions every engine retains (chain-aware): without it a
/// faster program would publish more epochs into a `MemBackend` and
/// report a higher `peak_rss_mb`.
const KEEP: usize = 4;

impl Workload {
    /// Epochs per rebase period (one base plus its deltas): byte counts
    /// are only comparable over whole periods.
    pub fn period(&self) -> usize {
        if self.delta {
            REBASE_EVERY + 1
        } else {
            1
        }
    }

    /// `(stride, phase)`: the epochs phase stops only after `n` epochs
    /// with `n % stride == phase`. The set-up's warm-up epoch is a base,
    /// so on a delta workload the newest version is then always the
    /// fourth delta of its chain — the mean depth — and a recovery costs
    /// the same chain walk wherever the budget happened to run out.
    pub fn epochs_stop_at(&self) -> (usize, usize) {
        if self.delta {
            (self.period(), REBASE_EVERY / 2)
        } else {
            (1, 0)
        }
    }

    /// The engine this workload's epochs run through, less the backend.
    pub fn engine_config(&self, recorder: Recorder) -> EngineConfig {
        EngineConfig {
            workers: THREADS,
            queue_depth: 4 * THREADS,
            target_shards: if self.sharded { 4 } else { THREADS },
            layout: if self.sharded {
                Layout::Sharded
            } else {
                Layout::Monolithic
            },
            keep: Some(KEEP),
            delta: self.delta.then(|| DeltaPolicy {
                rebase_every: REBASE_EVERY,
                ..Default::default()
            }),
            codec: codec_for(self.policy),
            recorder,
            ..Default::default()
        }
    }
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "suite_mem_mono",
        why: "AD record and sweeps over five tape shapes do the work and no byte leaves memory: a tape or sweep change shows here; its epochs are the pure ckpt + engine CPU floor",
        apps: &[App::Bt, App::Sp, App::Lu, App::Cg, App::Mg],
        analyzer: Analyzer::Ad,
        bounded: false,
        storage: Storage::Mem,
        sharded: false,
        delta: false,
        policy: Policy::PrunedValue,
        fault: false,
        shares: [0.70, 0.17, 0.13],
        floors: [3, 20, 20],
    },
    Workload {
        name: "bounded_mem_delta",
        why: "the same AD layer residency-bounded and replay-dominated (2 resident segments), so a replay schedule has a workload to win on; delta on MemBackend isolates diff from disk and wire",
        apps: &[App::Bt, App::Cg],
        analyzer: Analyzer::Ad,
        bounded: true,
        storage: Storage::Mem,
        sharded: false,
        delta: true,
        policy: Policy::PrunedValue,
        fault: false,
        shares: [0.72, 0.16, 0.12],
        floors: [3, 13, 20],
    },
    Workload {
        name: "mg_dir_sharded_czb",
        why: "shard serialize, lo-tier truncation, CRC, SCRUTCZB, worker pool, retention and the file system do the work, AD almost none: a codec, CRC or copy-count change shows here",
        apps: &[App::Mg],
        analyzer: Analyzer::Ad,
        bounded: false,
        storage: Storage::Dir,
        sharded: true,
        delta: false,
        policy: Policy::TieredCompressed {
            hi_threshold: 1e-6,
            keep: 4,
        },
        fault: false,
        shares: [0.40, 0.42, 0.18],
        floors: [3, 20, 20],
    },
    Workload {
        name: "mg_remote_delta_fault",
        why: "the scrutinyd wire path (frames, payload copies, one round trip per object) does the work, writes beside reads, and recovery must reject a flipped byte by name and fall back one link",
        apps: &[App::Mg],
        analyzer: Analyzer::Both,
        bounded: false,
        storage: Storage::Remote,
        sharded: false,
        delta: true,
        policy: Policy::PrunedValue,
        fault: true,
        shares: [0.35, 0.45, 0.20],
        floors: [3, 13, 3],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Every operation and check attempted, and those that failed.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation or check; `what` names it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
        ok
    }
}

/// The scratch directory and daemon under a rig's backend; removed and
/// joined on drop. Declared after the engine in [`Rig`], so the engine
/// has drained before its storage goes away.
struct Store {
    daemon: Option<Daemon>,
    dir: Option<PathBuf>,
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            if let Err(e) = daemon.join() {
                eprintln!("scrutinyd did not stop cleanly: {e}");
            }
        }
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One workload, set up: analysis apps with their reference verdicts,
/// the MG state and plans, and a live engine over the workload's
/// backend.
pub struct Rig {
    pub w: &'static Workload,
    pub apps: Vec<Box<dyn ScrutinyApp>>,
    pub opts: ScrutinyOptions,
    /// Unbounded `Analyzer::Ad` reports, one per analysis app — what
    /// every measured pass must reproduce bit for bit. When MG is not an
    /// analysis app its report follows at `mg_report`.
    pub reference: Vec<AnalysisReport>,
    mg_report: usize,
    pub mg: Mg,
    /// The unperturbed MG state.
    pub vars: Vec<VarRecord>,
    pub plans: Vec<VarPlan>,
    pub codec: CodecConfig,
    pub state_bytes: usize,
    /// Localized updates applied to `current` so far: update `k` is
    /// `perturb_localized(_, k)`.
    perturbed: usize,
    current: Vec<VarRecord>,
    /// `(version, perturbations applied)` of the two newest submissions.
    submitted: [(u64, usize); 2],
    seed: u64,
    pub rec: Recorder,
    pub backend: Arc<TimedBackend>,
    pub recovery: RecoveryConfig,
    /// The daemon's endpoint, for the wire probe.
    pub endpoint: Option<scrutinyd::Endpoint>,
    // Drop order: engine, then the store under it.
    pub engine: EngineHandle,
    _store: Store,
}

/// `benchmark/out` of the checkout the benchmark runs in.
pub fn out_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

impl Rig {
    /// Everything before the first timed sample: app construction, the
    /// reference analysis, the golden capture, backend / daemon / engine
    /// start, one warm-up epoch cycle and the §IV.C check. With an
    /// enabled `rec` this is also the traced full walk (ARCHITECTURE
    /// steps 1–8 closed by restart verification).
    pub fn set_up(w: &'static Workload, seed: u64, rec: &Recorder, ops: &mut Ops) -> Res<Rig> {
        let apps: Vec<Box<dyn ScrutinyApp>> = w.apps.iter().map(|a| a.build()).collect();
        let mg = Mg::class_s();
        let reference_opts = ScrutinyOptions {
            threads: THREADS,
            recorder: rec.clone(),
            ..Default::default()
        };
        let mut reference = Vec::new();
        {
            let _s = span!(rec, "bench.analyze");
            for app in &apps {
                reference.push(scrutinize_with(app.as_ref(), &reference_opts)?);
            }
        }
        let mg_report = match w.apps.iter().position(|&a| a == App::Mg) {
            Some(i) => i,
            None => {
                let _s = span!(rec, "bench.analyze");
                reference.push(scrutinize_with(&mg, &reference_opts)?);
                reference.len() - 1
            }
        };
        let vars = {
            let _s = span!(rec, "bench.capture");
            capture_state(&mg)
        };
        let plans = {
            let _s = span!(rec, "bench.plan");
            plans_for(&reference[mg_report], w.policy)
        };
        let codec = codec_for(w.policy);
        let state_bytes = vars.iter().map(|v| v.data.full_bytes()).sum();

        let open = span!(rec, "bench.open");
        let mut store = Store {
            daemon: None,
            dir: None,
        };
        if w.storage != Storage::Mem {
            let dir = out_dir().join(format!("tmp-{}-{}", w.name, std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir)?;
            store.dir = Some(dir);
        }
        let mut endpoint = None;
        let inner: Arc<dyn StorageBackend> = match w.storage {
            Storage::Mem => Arc::new(MemBackend::new()),
            Storage::Dir => Arc::new(DirBackend::open(store.dir.clone().expect("made above"))?),
            Storage::Remote => {
                let pool = Arc::new(DirBackend::open(store.dir.clone().expect("made above"))?);
                let daemon = Daemon::spawn_tcp(
                    "127.0.0.1:0",
                    pool,
                    DaemonConfig {
                        recorder: rec.clone(),
                        ..Default::default()
                    },
                )?;
                let ep = daemon.endpoint();
                store.daemon = Some(daemon);
                endpoint = Some(ep.clone());
                Arc::new(RemoteBackend::connect(ep, Some(Tenant::new("bench")?))?)
            }
        };
        let backend = Arc::new(TimedBackend::new(inner));
        let engine = EngineHandle::open(backend.clone(), w.engine_config(rec.clone()))?;
        drop(open);

        let mut rig = Rig {
            w,
            apps,
            opts: ScrutinyOptions {
                threads: THREADS,
                analyzer: w.analyzer,
                tape_checkpoints: w
                    .bounded
                    .then(|| TapeCheckpointConfig::with_ncheckpoints(2)),
                recorder: rec.clone(),
                ..Default::default()
            },
            reference,
            mg_report,
            mg,
            current: vars.clone(),
            vars,
            plans,
            codec,
            state_bytes,
            perturbed: 0,
            submitted: [(0, 0); 2],
            seed,
            rec: rec.clone(),
            backend,
            recovery: RecoveryConfig {
                threads: THREADS,
                recorder: rec.clone(),
                ..Default::default()
            },
            endpoint,
            engine,
            _store: store,
        };
        rig.cycle_and_verify(ops);
        Ok(rig)
    }

    pub fn mg_analysis(&self) -> &AnalysisReport {
        &self.reference[self.mg_report]
    }

    pub fn fill(&self) -> FillPolicy {
        FillPolicy::Garbage(self.seed)
    }

    /// The state of the newest submission, for `submit`.
    pub fn current(&self) -> &[VarRecord] {
        &self.current
    }

    /// Advance the state by one localized update: the next sixteenth of
    /// every array. The seed leaves the window sequence alone — windows
    /// differ in how many stored pages they dirty, and the byte counts
    /// must repeat exactly across seeds.
    pub fn mutate(&mut self) {
        perturb_localized(&mut self.current, self.perturbed);
        self.perturbed += 1;
    }

    /// Back to the unperturbed state (the one §IV.C verifies against).
    fn reset_state(&mut self) {
        self.current.clone_from(&self.vars);
        self.perturbed = 0;
    }

    /// Note that `version` was just submitted with the current state.
    pub fn note_submitted(&mut self, version: u64) {
        self.submitted = [self.submitted[1], (version, self.perturbed)];
    }

    /// The newest submitted version.
    pub fn newest(&self) -> u64 {
        self.submitted[1].0
    }

    /// What a recovery must return: `(version, rejected, data CRC)`.
    /// Under a fault on the newest version that is the one before it,
    /// with the newest named as rejected. The CRC is of a blocking
    /// `serialize_with` of the state that version was submitted with.
    pub fn expected_recovery(&self, faulted: bool) -> Res<(u64, Vec<u64>, u32)> {
        let (version, n) = self.submitted[if faulted { 0 } else { 1 }];
        let mut state = self.vars.clone();
        for k in 0..n {
            perturb_localized(&mut state, k);
        }
        let image = serialize_with(&state, &self.plans, self.codec.lo)?;
        let rejected = if faulted { vec![self.newest()] } else { vec![] };
        Ok((version, rejected, crc32(&image.data)))
    }

    /// XOR one byte of the newest version's commit-marker object (the
    /// delta, or the base image on a rebase epoch) at a seed-chosen
    /// offset. Returns what to `put` back to repair it.
    pub fn flip_newest(&self) -> Res<(String, Vec<u8>)> {
        let v = self.newest();
        let (name, original) = match self.backend.get(&names::delta(v)) {
            Ok(bytes) => (names::delta(v), bytes),
            Err(_) => (names::data(v), self.backend.get(&names::data(v))?),
        };
        let mut damaged = original.clone();
        let at = (self.seed as usize).wrapping_mul(0x9E37_79B9) % damaged.len();
        damaged[at] ^= 0xFF;
        self.backend.put(&name, &damaged)?;
        Ok((name, original))
    }

    /// Submit the unperturbed state through the workload's own engine,
    /// recover it, and run the §IV.C restart from the recovered
    /// checkpoint: it must come back as the version just written, bit
    /// identical to a blocking save, and the restart must verify — the
    /// gate on the lossy lo tier. Four checks.
    pub fn cycle_and_verify(&mut self, ops: &mut Ops) {
        self.reset_state();
        let rec = self.rec.clone();
        let result = (|| -> Res<(Recovered, u64)> {
            let ticket = {
                let _s = span!(rec, "bench.submit");
                self.engine.submit(&self.current, &self.plans)?
            };
            let version = ticket.version();
            {
                let _s = span!(rec, "bench.wait");
                self.engine.wait(ticket)?;
            }
            self.note_submitted(version);
            let _s = span!(rec, "bench.recover");
            let manager = RecoveryManager::new(self.backend.clone(), self.recovery.clone());
            Ok((manager.recover_latest()?, version))
        })();
        let (recovered, version) = match result {
            Ok(r) => r,
            Err(e) => {
                ops.check(false, || format!("warm-up cycle failed: {e}"));
                return;
            }
        };
        let expected = self.expected_recovery(false);
        {
            let _s = span!(rec, "bench.check");
            ops.check(recovered.version == version, || {
                format!("recovered version {} != {version}", recovered.version)
            });
            ops.check(
                expected.is_ok_and(|(_, _, crc)| crc == crc32(&recovered.data)),
                || format!("version {version} is not bit-identical to a blocking save"),
            );
        }
        let materialized = {
            let _s = span!(rec, "bench.materialize");
            materialize_all(&recovered.checkpoint, self.mg_analysis(), self.fill())
        };
        ops.check(materialized.is_ok(), || "materialize_all failed".into());
        let _s = span!(rec, "bench.restart_verify");
        let verified = verify_restart_from(
            &self.mg,
            self.mg_analysis(),
            &RestartConfig {
                policy: self.w.policy,
                fill: self.fill(),
                store_dir: None,
            },
            &recovered.checkpoint,
            StorageBreakdown {
                payload_bytes: recovered.data.len(),
                aux_bytes: recovered.aux.len(),
                header_bytes: 0,
            },
        );
        ops.check(verified.as_ref().is_ok_and(|r| r.verified), || {
            format!("restart verification failed: {verified:?}")
        });
    }
}
