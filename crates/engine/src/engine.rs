//! The asynchronous checkpoint engine: one publisher thread takes staged
//! snapshots off the compute thread, serializes each in shards, and
//! publishes it through a [`StorageBackend`] — in version order.
//!
//! Lifecycle of one submission:
//!
//! 1. `submit` acquires a staging slot (`queue_depth` of them, two by
//!    default: double buffering), memcpys the variables into an owned
//!    [`Snapshot`], plans the shard split, and — under the one lock that
//!    allocates its version — sends it to the publisher, returning a
//!    [`Ticket`]; the compute thread resumes immediately.
//! 2. The publisher takes submissions in version order and runs each to
//!    completion: it serializes the shards on up to `workers` threads
//!    ([`run_jobs`], the pool the restore pipeline runs on too), seals
//!    them into one image ([`seal_image`]) unless the layout stores them
//!    apart, serializes the tiny auxiliary file, hands the epoch to
//!    [`publish_epoch`] (commit marker last, in every layout; it seals a
//!    sharded epoch and builds its manifest), applies retention, resolves
//!    the ticket and frees the staging slot. One epoch publishes after
//!    another, so a delta always patches the last image that reached the
//!    backend.
//! 3. `wait(ticket)` / `drain()` deliver the [`StorageBreakdown`] — or
//!    the epoch's failure, panics included — back on the compute thread.

use crate::backend::{list_versions, prune_chain_aware, StorageBackend};
use crate::error::EngineError;
use crate::snapshot::{Snapshot, StagingGate};
use scrutiny_ckpt::delta::{publish_epoch, DeltaPolicy, EpochBody};
use scrutiny_ckpt::names;
use scrutiny_ckpt::restore::run_jobs;
use scrutiny_ckpt::shard::{plan_shards_with, seal_image, serialize_shard, ShardPlan};
use scrutiny_ckpt::{serialize_aux, CodecConfig, StorageBreakdown, VarPlan, VarRecord};
use scrutiny_obs::{point, span, Counter, Gauge, HistHandle, Recorder};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How the engine lays checkpoints out in the backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One `ckpt_v.data` object, byte-identical to the blocking writer's
    /// file (shards still serialize in parallel; the publisher seals them
    /// into one image with [`seal_image`] and no manifest is ever
    /// computed). The only layout delta mode accepts.
    Monolithic,
    /// One object per shard plus a manifest — segments stay separate
    /// objects a backend may place independently. [`publish_epoch`] seals
    /// them and builds the manifest, the layout's commit marker.
    Sharded,
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Threads serializing one epoch's shards (≥ 1): the publisher thread
    /// and `workers - 1` helpers.
    pub workers: usize,
    /// Submissions staged and not yet resolved (≥ 1); `submit` blocks
    /// beyond it. 2 = double buffering.
    pub queue_depth: usize,
    /// Shard-split target per submission (usually = `workers`).
    pub target_shards: usize,
    /// Storage layout for published checkpoints.
    pub layout: Layout,
    /// Keep only the newest `k` checkpoints when set. Retention is
    /// chain-aware: a base (or intermediate delta) is never deleted while
    /// a retained delta still restores through it.
    pub keep: Option<usize>,
    /// When set, publish base+delta chains (see [`scrutiny_ckpt::delta`]):
    /// the first epoch after `open` is a full base, later epochs store
    /// only the dirty pages of the serialized (AD-pruned) data file, and
    /// the chain rebases to a fresh full checkpoint every
    /// `rebase_every` deltas. Page diffing runs on the publisher thread —
    /// the compute thread still pays only the staging memcpy. Bases are
    /// one image, so `open` rejects delta mode with [`Layout::Sharded`].
    pub delta: Option<DeltaPolicy>,
    /// Storage codec (see [`scrutiny_ckpt::compress`]): the lo-tier
    /// element codec applied during shard serialization, and the
    /// optional `SCRUTCZB` at-rest compression applied to published
    /// data/shard/delta objects (never aux or manifest — the small
    /// control files stay directly inspectable). The default is a
    /// strict passthrough: byte streams identical to an engine without
    /// compression. Readers sniff the container magic per object, so a
    /// backend can mix compressed and raw checkpoints freely.
    pub codec: CodecConfig,
    /// Observability sink. The engine emits per-version spans
    /// (`engine.submit` → `engine.shard_serialize` → `engine.publish` →
    /// `engine.commit`), queue-depth/inflight gauges, and
    /// publish/commit counters through it. Defaults to
    /// [`Recorder::disabled`], which costs a branch per touch point.
    pub recorder: Recorder,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2);
        EngineConfig {
            workers,
            queue_depth: 2,
            target_shards: workers,
            layout: Layout::Monolithic,
            keep: None,
            delta: None,
            codec: CodecConfig::default(),
            recorder: Recorder::disabled(),
        }
    }
}

/// Receipt for one submission; redeem with [`EngineHandle::wait`].
/// Deliberately neither `Copy` nor `Clone`: a ticket resolves exactly
/// once.
#[derive(Debug)]
pub struct Ticket {
    version: u64,
}

impl Ticket {
    /// The checkpoint version this submission publishes as.
    pub fn version(&self) -> u64 {
        self.version
    }
}

struct Submission {
    version: u64,
    snapshot: Snapshot,
    plan: ShardPlan,
}

struct Tickets {
    /// The version the next submission publishes as.
    next_version: u64,
    /// The publisher's inbox; `None` once the handle drops. Every send
    /// happens under the lock that allocated its version, so the
    /// publisher receives submissions in version order.
    inbox: Option<Sender<Submission>>,
    /// Versions submitted and not yet resolved.
    pending: HashSet<u64>,
    /// Resolved results awaiting redemption, by version.
    done: HashMap<u64, Result<StorageBreakdown, EngineError>>,
}

/// Pre-resolved obs handles for the engine's hot paths: one registry
/// lookup at `open`, then a relaxed atomic per update.
struct EngineObs {
    rec: Recorder,
    /// Submissions sent and not yet taken by the publisher.
    queue_depth: Gauge,
    inflight: Gauge,
    submit_us: HistHandle,
    commit_bytes: HistHandle,
    submissions: Counter,
    commits: Counter,
    publish_failures: Counter,
    /// Pre-compression bytes fed to the at-rest codec (delta-mode and
    /// monolithic/sharded data objects alike); 0 with `AtRest::None`.
    raw_bytes: Counter,
    /// Post-compression bytes actually written for those objects. The
    /// ratio `compressed_bytes / raw_bytes` is the fleet-level at-rest
    /// compression factor.
    compressed_bytes: Counter,
}

impl EngineObs {
    fn new(rec: Recorder) -> Self {
        EngineObs {
            queue_depth: rec.gauge("engine.queue_depth"),
            inflight: rec.gauge("engine.inflight"),
            submit_us: rec.histogram("engine.submit_us"),
            commit_bytes: rec.histogram("engine.commit_bytes"),
            submissions: rec.counter("engine.submissions"),
            commits: rec.counter("engine.commits"),
            publish_failures: rec.counter("engine.publish_failures"),
            raw_bytes: rec.counter("engine.raw_bytes"),
            compressed_bytes: rec.counter("engine.compressed_bytes"),
            rec,
        }
    }
}

struct Shared {
    backend: Arc<dyn StorageBackend>,
    cfg: EngineConfig,
    obs: EngineObs,
    tickets: Mutex<Tickets>,
    resolved: Condvar,
    gate: StagingGate,
}

impl Shared {
    /// Record the outcome of version `version` and free its staging slot.
    /// The publisher calls this exactly once per submission: the single
    /// place the published/failed events and the inflight gauge are
    /// emitted.
    fn resolve(&self, version: u64, result: Result<StorageBreakdown, EngineError>) {
        match &result {
            Ok(bd) => {
                self.obs.commits.inc();
                self.obs.commit_bytes.record(bd.total() as u64);
                point!(
                    self.obs.rec,
                    "engine.published",
                    version = version,
                    payload_bytes = bd.payload_bytes,
                    aux_bytes = bd.aux_bytes,
                    header_bytes = bd.header_bytes,
                    total_bytes = bd.total()
                );
            }
            Err(e) => {
                self.obs.publish_failures.inc();
                point!(
                    self.obs.rec,
                    "engine.publish_failed",
                    version = version,
                    error = e.to_string()
                );
            }
        }
        {
            let mut t = self.tickets.lock().unwrap();
            t.pending.remove(&version);
            t.done.insert(version, result);
            self.obs.inflight.set(t.pending.len() as i64);
        }
        self.resolved.notify_all();
        self.gate.release();
    }
}

/// Handle to a running engine. Dropping it lets the publisher finish
/// every submission already sent, then joins it.
pub struct EngineHandle {
    shared: Arc<Shared>,
    publisher: Option<JoinHandle<()>>,
}

impl EngineHandle {
    /// Start an engine over `backend`. Scans the backend so new
    /// checkpoints continue the existing version numbering.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        cfg: EngineConfig,
    ) -> Result<EngineHandle, EngineError> {
        for (what, v) in [
            ("workers", cfg.workers),
            ("queue_depth", cfg.queue_depth),
            ("target_shards", cfg.target_shards),
        ] {
            if v == 0 {
                return Err(EngineError::InvalidConfig(format!("{what} must be >= 1")));
            }
        }
        if cfg.keep == Some(0) {
            return Err(EngineError::InvalidConfig(
                "retention must keep at least one checkpoint".into(),
            ));
        }
        if let Some(delta) = &cfg.delta {
            delta.validate()?;
            if cfg.layout != Layout::Monolithic {
                return Err(EngineError::InvalidConfig(
                    "delta chains publish one image per epoch: use Layout::Monolithic".into(),
                ));
            }
        }
        cfg.codec.validate()?;
        let next_version = list_versions(backend.as_ref())?.last().map_or(0, |v| v + 1);
        let (inbox, submissions) = mpsc::channel();
        let shared = Arc::new(Shared {
            obs: EngineObs::new(cfg.recorder.clone()),
            tickets: Mutex::new(Tickets {
                next_version,
                inbox: Some(inbox),
                pending: HashSet::new(),
                done: HashMap::new(),
            }),
            resolved: Condvar::new(),
            gate: StagingGate::new(cfg.queue_depth),
            cfg,
            backend,
        });
        let publisher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("scrutiny-ckpt-publisher".into())
                .spawn(move || publish_loop(&shared, submissions))
                .expect("spawn checkpoint publisher")
        };
        Ok(EngineHandle {
            shared,
            publisher: Some(publisher),
        })
    }

    /// The backend this engine publishes into.
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        self.shared.backend.clone()
    }

    /// The recorder this engine reports into (disabled unless the config
    /// set one).
    pub fn recorder(&self) -> &Recorder {
        &self.shared.obs.rec
    }

    /// Stage a copy of `vars`/`plans` and hand it to the publisher;
    /// returns as soon as the copy is staged and sent. Blocks only for
    /// backpressure: `queue_depth` submissions staged and unresolved.
    pub fn submit(&self, vars: &[VarRecord], plans: &[VarPlan]) -> Result<Ticket, EngineError> {
        let shared = &*self.shared;
        shared.gate.acquire();
        let snapshot = Snapshot::capture(vars, plans);
        let obs = &shared.obs;
        let t0 = obs.rec.is_enabled().then(std::time::Instant::now);
        let plan = match plan_shards_with(
            &snapshot.vars,
            &snapshot.plans,
            shared.cfg.target_shards,
            shared.cfg.codec.lo,
        ) {
            Ok(p) => p,
            Err(e) => {
                shared.gate.release();
                return Err(e.into());
            }
        };
        let mut t = shared.tickets.lock().unwrap();
        let version = t.next_version;
        t.next_version += 1;
        let submit_span = span!(
            obs.rec,
            "engine.submit",
            version = version,
            shards = plan.shard_count()
        );
        obs.submissions.inc();
        t.pending.insert(version);
        obs.inflight.set(t.pending.len() as i64);
        obs.queue_depth.adjust(1);
        t.inbox
            .as_ref()
            .expect("the inbox lives as long as the handle")
            .send(Submission {
                version,
                snapshot,
                plan,
            })
            .expect("the publisher outlives the handle");
        drop(t);
        drop(submit_span);
        if let Some(t0) = t0 {
            obs.submit_us.record_duration(t0.elapsed());
        }
        Ok(Ticket { version })
    }

    /// Block until `ticket`'s submission is durably stored (or failed),
    /// returning its storage accounting. Publisher-side failures —
    /// backend errors, serialization errors, even panics — surface here.
    pub fn wait(&self, ticket: Ticket) -> Result<StorageBreakdown, EngineError> {
        let mut t = self.shared.tickets.lock().unwrap();
        loop {
            if let Some(res) = t.done.remove(&ticket.version) {
                return res;
            }
            if !t.pending.contains(&ticket.version) {
                return Err(EngineError::UnknownTicket(ticket.version));
            }
            t = self.shared.resolved.wait(t).unwrap();
        }
    }

    /// Block until every outstanding submission resolves; returns
    /// `(version, breakdown)` per unredeemed ticket, oldest first. The
    /// first failure (if any) is returned instead.
    pub fn drain(&self) -> Result<Vec<(u64, StorageBreakdown)>, EngineError> {
        let mut t = self.shared.tickets.lock().unwrap();
        while !t.pending.is_empty() {
            t = self.shared.resolved.wait(t).unwrap();
        }
        let mut versions: Vec<u64> = t.done.keys().copied().collect();
        versions.sort_unstable();
        versions
            .into_iter()
            .map(|v| {
                t.done
                    .remove(&v)
                    .expect("taken from done")
                    .map(|bd| (v, bd))
            })
            .collect()
    }

    /// Submissions not yet resolved (diagnostic).
    pub fn pending(&self) -> usize {
        self.shared.tickets.lock().unwrap().pending.len()
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        self.shared.tickets.lock().unwrap().inbox = None;
        if let Some(publisher) = self.publisher.take() {
            let _ = publisher.join();
        }
    }
}

/// The publisher thread: takes submissions in version order and runs each
/// to completion. A failed or panicking epoch resolves its own ticket as
/// `Err` and leaves the chain state as it was, so the next delta patches
/// the last image that actually reached the backend.
fn publish_loop(shared: &Shared, submissions: Receiver<Submission>) {
    let (cfg, obs) = (&shared.cfg, &shared.obs);
    let backend = shared.backend.as_ref();
    // The chain: the last published image (the next delta's parent), the
    // deltas since its base, and the parent of every live delta published
    // since `open` — handed to [`prune_chain_aware`] so retention does not
    // fetch a delta to learn what its publisher knew.
    let mut prev: Option<(u64, Vec<u8>)> = None;
    let mut deltas_since_base = 0;
    let mut parents = BTreeMap::new();
    for sub in submissions {
        obs.queue_depth.adjust(-1);
        let v = sub.version;
        let epoch = || -> Result<StorageBreakdown, EngineError> {
            let Snapshot { vars, plans } = &sub.snapshot;
            let segments = run_jobs(sub.plan.shard_count(), cfg.workers, |shard| {
                let _span = span!(
                    obs.rec,
                    "engine.shard_serialize",
                    version = v,
                    shard = shard
                );
                Ok::<_, EngineError>(serialize_shard(vars, plans, &sub.plan, shard))
            })?;
            let payload_bytes = segments.iter().map(|(_, payload)| payload).sum();
            let mut shards: Vec<Vec<u8>> = segments.into_iter().map(|(bytes, _)| bytes).collect();
            let (aux, pair_bytes) = serialize_aux(vars, plans);
            // Sharded segments go to `publish_epoch` as they are; it seals
            // them beside their manifest.
            let image =
                (cfg.layout == Layout::Monolithic).then(|| seal_image(std::mem::take(&mut shards)));
            let body = match (&image, &cfg.delta) {
                (Some(image), Some(policy)) => EpochBody::Chained {
                    image,
                    policy,
                    prev: prev.as_ref(),
                    deltas_since_base,
                },
                (Some(image), None) => EpochBody::Image(image),
                (None, _) => EpochBody::Sharded { shards },
            };
            // Closes before the ticket resolves: a waiter may snapshot the
            // recorder the moment `wait` returns, and must not see its own
            // completed epoch as an open span.
            let _publish = span!(obs.rec, "engine.publish", version = v);
            // What stays the engine's own in the put: the byte counters of
            // the at-rest codec, and the `engine.commit` span around the
            // marker write (the one object whose name carries this
            // committed version). The span is emitted retroactively, only
            // after that write succeeded, so exactly one exists per
            // *published* version — a failed epoch emits
            // `engine.publish_failed` instead — which is what makes a
            // recovery walk reconstructable from the log alone.
            let published = publish_epoch(
                v,
                body,
                payload_bytes,
                (&aux, pair_bytes),
                cfg.codec.at_rest,
                &obs.rec,
                |name, bytes, compressed_from| {
                    if let Some(raw_len) = compressed_from {
                        obs.raw_bytes.add(raw_len as u64);
                        obs.compressed_bytes.add(bytes.len() as u64);
                    }
                    let t_commit = obs.rec.now_us();
                    backend.put(name, bytes)?;
                    if obs.rec.is_enabled() && names::committed_version(name) == Some(v) {
                        let fields = [
                            ("version", v.into()),
                            ("object", name.into()),
                            ("marker_bytes", bytes.len().into()),
                        ];
                        obs.rec.closed_span("engine.commit", t_commit, &fields);
                    }
                    Ok(())
                },
            )?;
            // The checkpoint is durably committed here, so retention is
            // best-effort: a transient sweep failure must not resolve the
            // ticket as Err (a caller would resubmit a checkpoint that
            // exists). A version the sweep misses is retried by the next
            // epoch's sweep.
            if let Some(keep) = cfg.keep {
                parents.extend(published.parent.map(|p| (v, p)));
                let _ = prune_chain_aware(backend, keep, &mut parents);
            }
            if let Some(image) = image.filter(|_| cfg.delta.is_some()) {
                prev = Some((v, image));
                deltas_since_base = published.deltas_since_base;
            }
            Ok(published.stored)
        };
        let result = catch_unwind(AssertUnwindSafe(epoch)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "publisher panicked with a non-string payload".into());
            Err(EngineError::WorkerPanic(msg))
        });
        // The staged copy goes before the slot it held is freed.
        drop(sub);
        shared.resolve(v, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{read_version, MemBackend};
    use scrutiny_ckpt::writer::serialize;
    use scrutiny_ckpt::{AtRest, Bitmap, Checkpoint, FillPolicy, Regions, VarData};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn sample(n: usize, scale: f64) -> (Vec<VarRecord>, Vec<VarPlan>) {
        let vars = vec![
            VarRecord::new(
                "u",
                VarData::F64((0..n).map(|i| i as f64 * scale).collect()),
            ),
            VarRecord::new("it", VarData::I64(vec![n as i64])),
        ];
        let crit = Bitmap::from_fn(n, |i| i % 5 != 0);
        let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit)), VarPlan::Full];
        (vars, plans)
    }

    fn engine(layout: Layout) -> (EngineHandle, Arc<MemBackend>) {
        let mem = Arc::new(MemBackend::new());
        let cfg = EngineConfig {
            workers: 3,
            target_shards: 3,
            layout,
            ..Default::default()
        };
        (EngineHandle::open(mem.clone(), cfg).unwrap(), mem)
    }

    #[test]
    fn submit_wait_matches_blocking_serialize() {
        let (eng, mem) = engine(Layout::Monolithic);
        let (vars, plans) = sample(500, 0.25);
        let ticket = eng.submit(&vars, &plans).unwrap();
        let v = ticket.version();
        let bd = eng.wait(ticket).unwrap();

        let blocking = serialize(&vars, &plans).unwrap();
        assert_eq!(bd, blocking.breakdown, "storage accounting must match");
        let (data, aux) = read_version(mem.as_ref(), v).unwrap();
        assert_eq!(data, blocking.data, "engine bytes must be bit-identical");
        assert_eq!(aux, blocking.aux);
    }

    #[test]
    fn sharded_layout_restores_identically() {
        let (eng, mem) = engine(Layout::Sharded);
        let (vars, plans) = sample(777, 1.5);
        let ticket = eng.submit(&vars, &plans).unwrap();
        let v = ticket.version();
        eng.wait(ticket).unwrap();

        let (data, aux) = read_version(mem.as_ref(), v).unwrap();
        let blocking = serialize(&vars, &plans).unwrap();
        assert_eq!(data, blocking.data);
        let ck = Checkpoint::from_bytes(&data, &aux).unwrap();
        let got = ck
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Sentinel(-1.0))
            .unwrap();
        let VarData::F64(want) = &vars[0].data else {
            unreachable!()
        };
        for i in 0..want.len() {
            if i % 5 != 0 {
                assert_eq!(got[i], want[i]);
            }
        }
    }

    #[test]
    fn versions_are_monotonic_and_drain_resolves_all() {
        let (eng, _mem) = engine(Layout::Monolithic);
        let (vars, plans) = sample(64, 2.0);
        let mut versions = Vec::new();
        for _ in 0..5 {
            versions.push(eng.submit(&vars, &plans).unwrap().version());
        }
        let resolved = eng.drain().unwrap();
        assert_eq!(resolved.len(), 5);
        assert_eq!(versions, vec![0, 1, 2, 3, 4]);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn backend_failure_propagates_to_wait() {
        struct FailingBackend;
        impl StorageBackend for FailingBackend {
            fn put(&self, _: &str, _: &[u8]) -> Result<(), scrutiny_ckpt::CkptError> {
                Err(scrutiny_ckpt::CkptError::Corrupt("disk on fire".into()))
            }
            fn get(&self, n: &str) -> Result<Vec<u8>, scrutiny_ckpt::CkptError> {
                Err(scrutiny_ckpt::CkptError::MissingVar(n.into()))
            }
            fn list(&self) -> Result<Vec<String>, scrutiny_ckpt::CkptError> {
                Ok(Vec::new())
            }
            fn delete(&self, _: &str) -> Result<(), scrutiny_ckpt::CkptError> {
                Ok(())
            }
            fn label(&self) -> String {
                "failing".into()
            }
        }
        let eng = EngineHandle::open(Arc::new(FailingBackend), EngineConfig::default()).unwrap();
        let (vars, plans) = sample(32, 1.0);
        let ticket = eng.submit(&vars, &plans).unwrap();
        match eng.wait(ticket) {
            Err(EngineError::Ckpt(scrutiny_ckpt::CkptError::Corrupt(m))) => {
                assert!(m.contains("disk on fire"))
            }
            other => panic!("expected the backend failure, got {other:?}"),
        }
        // The engine stays usable for the next submission's failure too.
        let t2 = eng.submit(&vars, &plans).unwrap();
        assert!(eng.wait(t2).is_err());
    }

    #[test]
    fn publisher_panic_reaches_wait_and_the_engine_keeps_publishing() {
        /// Panics on the first put, then forwards to memory.
        struct PanicOnce(MemBackend, AtomicBool);
        impl StorageBackend for PanicOnce {
            fn put(&self, name: &str, bytes: &[u8]) -> Result<(), scrutiny_ckpt::CkptError> {
                assert!(
                    self.1.swap(true, Ordering::Relaxed),
                    "disk controller on fire"
                );
                self.0.put(name, bytes)
            }
            fn get(&self, name: &str) -> Result<Vec<u8>, scrutiny_ckpt::CkptError> {
                self.0.get(name)
            }
            fn list(&self) -> Result<Vec<String>, scrutiny_ckpt::CkptError> {
                self.0.list()
            }
            fn delete(&self, name: &str) -> Result<(), scrutiny_ckpt::CkptError> {
                self.0.delete(name)
            }
            fn label(&self) -> String {
                "panic-once".into()
            }
        }
        let backend = Arc::new(PanicOnce(MemBackend::new(), AtomicBool::new(false)));
        let eng = EngineHandle::open(backend.clone(), EngineConfig::default()).unwrap();
        let (vars, plans) = sample(64, 1.0);
        match eng.wait(eng.submit(&vars, &plans).unwrap()) {
            Err(EngineError::WorkerPanic(m)) => assert!(m.contains("on fire"), "{m}"),
            other => panic!("expected the panic, got {other:?}"),
        }
        let t = eng.submit(&vars, &plans).unwrap();
        let v = t.version();
        eng.wait(t).unwrap();
        assert!(read_version(&backend.0, v).is_ok());
    }

    #[test]
    fn retention_keeps_newest_k() {
        let mem = Arc::new(MemBackend::new());
        let cfg = EngineConfig {
            workers: 2,
            keep: Some(2),
            ..Default::default()
        };
        let eng = EngineHandle::open(mem.clone(), cfg).unwrap();
        let (vars, plans) = sample(64, 1.0);
        for _ in 0..5 {
            let t = eng.submit(&vars, &plans).unwrap();
            eng.wait(t).unwrap();
        }
        let versions = list_versions(mem.as_ref()).unwrap();
        assert_eq!(versions, vec![3, 4]);
        drop(eng);

        // A reopened engine continues the numbering.
        let eng = EngineHandle::open(mem.clone(), EngineConfig::default()).unwrap();
        let t = eng.submit(&vars, &plans).unwrap();
        assert_eq!(t.version(), 5);
        eng.wait(t).unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mem: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        for cfg in [
            EngineConfig {
                workers: 0,
                ..Default::default()
            },
            EngineConfig {
                queue_depth: 0,
                ..Default::default()
            },
            EngineConfig {
                keep: Some(0),
                ..Default::default()
            },
            EngineConfig {
                delta: Some(DeltaPolicy::default()),
                layout: Layout::Sharded,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                EngineHandle::open(mem.clone(), cfg),
                Err(EngineError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn delta_mode_publishes_base_deltas_and_rebases_bit_identically() {
        let mem = Arc::new(MemBackend::new());
        let cfg = EngineConfig {
            workers: 3,
            target_shards: 3,
            delta: Some(DeltaPolicy {
                page_bytes: 256,
                rebase_every: 2,
            }),
            ..Default::default()
        };
        let eng = EngineHandle::open(mem.clone(), cfg).unwrap();
        let (mut vars, plans) = sample(400, 1.0);
        let mut totals = Vec::new();
        for epoch in 0..5u64 {
            if let VarData::F64(v) = &mut vars[0].data {
                v[7] = epoch as f64 * 3.5; // localized update
            }
            let t = eng.submit(&vars, &plans).unwrap();
            let v = t.version();
            let bd = eng.wait(t).unwrap();
            totals.push(bd.total());
            // Whatever the layout on disk, the reconstructed image is
            // bit-identical to a blocking monolithic save of this epoch.
            let (data, aux) = read_version(mem.as_ref(), v).unwrap();
            let blocking = serialize(&vars, &plans).unwrap();
            assert_eq!(data, blocking.data, "epoch {epoch}");
            assert_eq!(aux, blocking.aux, "epoch {epoch}");
        }
        // rebase_every = 2 → 0 base, 1-2 deltas, 3 rebase, 4 delta.
        let names_held = mem.list().unwrap();
        for (v, is_delta) in [(0, false), (1, true), (2, true), (3, false), (4, true)] {
            assert_eq!(
                names_held.iter().any(|n| n == &names::delta(v)),
                is_delta,
                "version {v} delta object"
            );
            assert_eq!(
                names_held.iter().any(|n| n == &names::data(v)),
                !is_delta,
                "version {v} data object"
            );
        }
        // Delta epochs write far fewer bytes than the base (the pruned
        // aux file is rewritten every epoch and dominates the delta's
        // total here, so the bar is 2×, not 10×).
        assert!(
            totals[1] < totals[0] / 2,
            "delta {} vs base {}",
            totals[1],
            totals[0]
        );
        assert!(totals[4] < totals[3] / 2);
    }

    #[test]
    fn delta_chain_survives_a_failed_epoch() {
        /// Fails every put of version 1; everything else goes to memory.
        struct FailV1(MemBackend);
        impl StorageBackend for FailV1 {
            fn put(&self, name: &str, bytes: &[u8]) -> Result<(), scrutiny_ckpt::CkptError> {
                if names::committed_version(name) == Some(1)
                    || matches!(
                        names::classify(name),
                        scrutiny_ckpt::names::CkptName::Aux(1)
                    )
                {
                    return Err(scrutiny_ckpt::CkptError::Corrupt("epoch 1 lost".into()));
                }
                self.0.put(name, bytes)
            }
            fn get(&self, name: &str) -> Result<Vec<u8>, scrutiny_ckpt::CkptError> {
                self.0.get(name)
            }
            fn list(&self) -> Result<Vec<String>, scrutiny_ckpt::CkptError> {
                self.0.list()
            }
            fn delete(&self, name: &str) -> Result<(), scrutiny_ckpt::CkptError> {
                self.0.delete(name)
            }
            fn label(&self) -> String {
                "fail-v1".into()
            }
        }
        let backend = Arc::new(FailV1(MemBackend::new()));
        let cfg = EngineConfig {
            workers: 2,
            delta: Some(DeltaPolicy {
                page_bytes: 256,
                rebase_every: 10,
            }),
            ..Default::default()
        };
        let eng = EngineHandle::open(backend.clone(), cfg).unwrap();
        let (mut vars, plans) = sample(300, 2.0);
        let mut wanted = Vec::new();
        let mut results = Vec::new();
        for epoch in 0..3u64 {
            if let VarData::F64(v) = &mut vars[0].data {
                v[0] = epoch as f64 + 0.25;
            }
            let t = eng.submit(&vars, &plans).unwrap();
            wanted.push(serialize(&vars, &plans).unwrap().data);
            results.push(eng.wait(t));
        }
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "epoch 1's failure must surface");
        assert!(results[2].is_ok(), "the chain continues past a failure");
        // Epoch 2's delta patches epoch 0 (the last image that landed),
        // and still reconstructs epoch 2's state bit-identically.
        let (data, _) = read_version(backend.as_ref(), 2).unwrap();
        assert_eq!(data, wanted[2]);
        assert!(read_version(backend.as_ref(), 1).is_err());
    }

    #[test]
    fn delta_mode_retention_is_chain_aware() {
        let mem = Arc::new(MemBackend::new());
        let cfg = EngineConfig {
            workers: 2,
            keep: Some(2),
            delta: Some(DeltaPolicy {
                page_bytes: 256,
                rebase_every: 3,
            }),
            ..Default::default()
        };
        let eng = EngineHandle::open(mem.clone(), cfg).unwrap();
        let (mut vars, plans) = sample(300, 1.0);
        for epoch in 0..4u64 {
            if let VarData::F64(v) = &mut vars[0].data {
                v[1] = epoch as f64;
            }
            let t = eng.submit(&vars, &plans).unwrap();
            eng.wait(t).unwrap();
        }
        // 0 base, 1..=3 deltas: keep=2 would naively leave {2, 3}, but
        // they restore through 1 and 0 — everything must survive.
        assert_eq!(list_versions(mem.as_ref()).unwrap(), vec![0, 1, 2, 3]);
        assert!(read_version(mem.as_ref(), 3).is_ok());

        // 4 rebases (full), 5 is a delta on 4: the old chain may go.
        for epoch in 4..6u64 {
            if let VarData::F64(v) = &mut vars[0].data {
                v[1] = epoch as f64;
            }
            let t = eng.submit(&vars, &plans).unwrap();
            eng.wait(t).unwrap();
        }
        assert_eq!(list_versions(mem.as_ref()).unwrap(), vec![4, 5]);
        assert!(read_version(mem.as_ref(), 5).is_ok());
    }

    #[test]
    fn invalid_delta_policy_rejected() {
        let mem: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        for delta in [
            DeltaPolicy {
                page_bytes: 0,
                rebase_every: 4,
            },
            DeltaPolicy {
                page_bytes: 4096,
                rebase_every: 0,
            },
        ] {
            assert!(matches!(
                EngineHandle::open(
                    mem.clone(),
                    EngineConfig {
                        delta: Some(delta),
                        ..Default::default()
                    }
                ),
                Err(EngineError::Ckpt(scrutiny_ckpt::CkptError::InvalidConfig(
                    _
                )))
            ));
        }
    }

    #[test]
    fn compressed_publishes_restore_bit_identically_in_every_layout() {
        use scrutiny_ckpt::compress::is_container;
        // Smooth values compress well under the bit-plane codec.
        let vars = vec![VarRecord::new(
            "u",
            VarData::F64((0..2048).map(|i| 1.0 + i as f64 * 1e-7).collect()),
        )];
        let plans = vec![VarPlan::Full];
        let blocking = serialize(&vars, &plans).unwrap();
        let codec = CodecConfig {
            at_rest: AtRest::Auto,
            ..Default::default()
        };
        for (layout, delta) in [
            (Layout::Monolithic, None),
            (Layout::Sharded, None),
            (
                Layout::Monolithic,
                Some(DeltaPolicy {
                    page_bytes: 256,
                    rebase_every: 4,
                }),
            ),
        ] {
            let mem = Arc::new(MemBackend::new());
            let cfg = EngineConfig {
                workers: 3,
                target_shards: 3,
                layout,
                delta,
                codec,
                recorder: Recorder::new(),
                ..Default::default()
            };
            let eng = EngineHandle::open(mem.clone(), cfg).unwrap();
            let t = eng.submit(&vars, &plans).unwrap();
            let v = t.version();
            let bd = eng.wait(t).unwrap();
            // Reconstructed image is bit-identical to the raw writer's.
            let (data, aux) = read_version(mem.as_ref(), v).unwrap();
            assert_eq!(data, blocking.data, "{layout:?} delta={}", delta.is_some());
            assert_eq!(aux, blocking.aux);
            // The stored payload object really is a container, the
            // breakdown tracks the stored (smaller) bytes, and the
            // compression counters observed the shrink.
            let first_obj = if layout == Layout::Sharded && delta.is_none() {
                mem.get(&names::shard(v, 0)).unwrap()
            } else {
                mem.get(&names::data(v)).unwrap()
            };
            assert!(is_container(&first_obj), "{layout:?}");
            assert!(
                bd.total() < blocking.breakdown.total(),
                "{layout:?}: {} !< {}",
                bd.total(),
                blocking.breakdown.total()
            );
            let snap = eng.recorder().snapshot();
            let raw = snap.counter("engine.raw_bytes").unwrap_or(0);
            let stored = snap.counter("engine.compressed_bytes").unwrap_or(0);
            assert!(stored > 0 && stored < raw, "{layout:?}: {stored} vs {raw}");
        }
    }

    #[test]
    fn drop_drains_queued_work() {
        let mem = Arc::new(MemBackend::new());
        let eng = EngineHandle::open(mem.clone(), EngineConfig::default()).unwrap();
        let (vars, plans) = sample(2000, 0.5);
        let t = eng.submit(&vars, &plans).unwrap();
        let v = t.version();
        drop(eng); // joins the publisher; a sent epoch must still publish
        assert!(read_version(mem.as_ref(), v).is_ok());
    }
}
