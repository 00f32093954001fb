//! The asynchronous checkpoint engine: a bounded worker pool that takes a
//! staged snapshot off the compute thread, serializes it in shards, and
//! publishes it through a [`StorageBackend`].
//!
//! Lifecycle of one submission:
//!
//! 1. `submit` acquires a staging slot (double-buffered by default),
//!    memcpys the variables into an owned [`Snapshot`], plans the shard
//!    split, enqueues one task per shard on the bounded queue, and
//!    returns a [`Ticket`] — the compute thread resumes immediately.
//! 2. Workers pop shard tasks and serialize their segments concurrently,
//!    so one large array does not serialize on a single core.
//! 3. The worker that finishes the *last* shard of a submission seals the
//!    segments into one image ([`seal_image`]) unless the layout stores
//!    them apart, serializes the tiny auxiliary file, hands the epoch to
//!    the one publisher ([`scrutiny_ckpt::delta::publish_epoch`] — commit
//!    marker last, in every layout; it seals a sharded epoch and builds
//!    its manifest), applies retention, records the result, and frees the
//!    staging slot.
//! 4. `wait(ticket)` / `drain()` deliver the [`StorageBreakdown`] — or
//!    the worker's failure — back on the compute thread.

use crate::backend::{list_versions, prune_chain_aware, StorageBackend};
use crate::error::EngineError;
use crate::snapshot::{Snapshot, StagingGate};
use scrutiny_ckpt::delta::{publish_epoch, DeltaPolicy, EpochBody};
use scrutiny_ckpt::names;
use scrutiny_ckpt::shard::{plan_shards_with, seal_image, serialize_shard, ShardPlan};
use scrutiny_ckpt::{serialize_aux, CodecConfig, StorageBreakdown, VarPlan, VarRecord};
use scrutiny_obs::{point, span, Counter, Gauge, HistHandle, Recorder};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How the engine lays checkpoints out in the backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One `ckpt_v.data` object, byte-identical to the blocking writer's
    /// file (workers still serialize shards in parallel; the finisher
    /// seals them into one image with [`seal_image`] and no manifest is
    /// ever computed).
    Monolithic,
    /// One object per shard plus a manifest — segments stay separate so a
    /// [`crate::backend::ShardedBackend`] can stripe them across tiers.
    /// The publisher seals them and builds the manifest, the layout's
    /// commit marker.
    Sharded,
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads serializing and writing (≥ 1).
    pub workers: usize,
    /// Bounded task-queue depth; `submit` applies backpressure beyond it.
    pub queue_depth: usize,
    /// Staged snapshots allowed in flight (2 = double buffering).
    pub max_staged: usize,
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
    /// `rebase_every` deltas. Page diffing runs in the worker pool — the
    /// compute thread still pays only the staging memcpy. Bases are
    /// published monolithically; `layout` is ignored in delta mode.
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
            queue_depth: 4 * workers,
            max_staged: 2,
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
    id: u64,
    version: u64,
}

impl Ticket {
    /// The checkpoint version this submission publishes as.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// One serialized shard: `(bytes, payload_bytes)`.
type Segment = (Vec<u8>, usize);

struct Submission {
    id: u64,
    version: u64,
    snapshot: Snapshot,
    plan: ShardPlan,
    /// Per-shard `(bytes, payload_bytes)`, filled by workers.
    segments: Mutex<Vec<Option<Segment>>>,
    remaining: AtomicUsize,
    /// Set by the first `resolve` for this submission. Guards against a
    /// second failing shard resolving again after `wait` already drained
    /// the first result from the `done` map (which would underflow
    /// `pending` and over-release the staging gate).
    resolved: AtomicBool,
}

struct Task {
    sub: Arc<Submission>,
    shard: usize,
}

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct ResultsState {
    /// Tickets issued and not yet redeemed by `wait`/`drain`.
    outstanding: HashSet<u64>,
    /// Resolved `(version, result)` pairs awaiting redemption.
    done: HashMap<u64, (u64, Result<StorageBreakdown, EngineError>)>,
    /// Submissions not yet resolved (outstanding minus done).
    pending: usize,
    next_id: u64,
}

/// Delta-chain bookkeeping (present only when `cfg.delta` is set).
///
/// Deltas are diffs against the *previous published epoch*, so publishes
/// must happen in version order even though shard serialization is
/// concurrent. `turn` is a version-ordered turnstile: a finisher waits
/// until every older version has **resolved** (published or failed), so a
/// failed epoch never wedges the chain — the next delta simply patches
/// the last image that actually reached the backend.
struct Chain {
    state: Mutex<ChainState>,
    cv: Condvar,
}

struct ChainState {
    /// Every version below this has resolved.
    turn: u64,
    /// Resolved versions at or above `turn` (out-of-order failures).
    resolved: BTreeSet<u64>,
    /// Last successfully published data-file image and its version — the
    /// parent of the next delta.
    prev: Option<(u64, Vec<u8>)>,
    /// Consecutive delta epochs since the last full base.
    deltas_since_base: usize,
    /// Parent of every live delta published since `open` — handed to
    /// [`prune_chain_aware`] so retention does not fetch a delta to
    /// learn what its publisher knew.
    parents: BTreeMap<u64, u64>,
}

impl Chain {
    fn new(turn: u64) -> Self {
        Chain {
            state: Mutex::new(ChainState {
                turn,
                resolved: BTreeSet::new(),
                prev: None,
                deltas_since_base: 0,
                parents: BTreeMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Mark `version` resolved and advance the turnstile past every
    /// consecutively resolved version. Called from `Shared::resolve` —
    /// the one point every submission passes exactly once.
    fn mark_resolved(&self, version: u64) {
        let mut s = self.state.lock().unwrap();
        s.resolved.insert(version);
        loop {
            let turn = s.turn;
            if !s.resolved.remove(&turn) {
                break;
            }
            s.turn += 1;
        }
        drop(s);
        self.cv.notify_all();
    }
}

/// Pre-resolved obs handles for the engine's hot paths: one registry
/// lookup at `open`, then a relaxed atomic per update.
struct EngineObs {
    rec: Recorder,
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
    queue: Mutex<QueueState>,
    /// Workers sleep here waiting for tasks.
    task_cv: Condvar,
    /// Submitters sleep here waiting for queue space.
    space_cv: Condvar,
    results: Mutex<ResultsState>,
    results_cv: Condvar,
    gate: StagingGate,
    next_version: AtomicU64,
    /// Held across version allocation *and* task enqueueing so queue
    /// order always matches version order — the delta turnstile relies
    /// on it (see [`EngineHandle::submit`]). Serializes submitters only;
    /// workers never take it.
    submit_order: Mutex<()>,
    /// Delta-chain turnstile and parent image; `None` unless `cfg.delta`.
    chain: Option<Chain>,
}

impl Shared {
    /// Record the outcome of a submission exactly once and free its
    /// staging slot. Later calls for the same submission (e.g. the last
    /// shard finishing after a sibling already failed, or two shards
    /// failing independently) are no-ops — the guard is the submission's
    /// own flag, not the `done` map, which `wait` drains concurrently.
    fn resolve(&self, sub: &Submission, result: Result<StorageBreakdown, EngineError>) {
        if sub.resolved.swap(true, Ordering::AcqRel) {
            return;
        }
        // Every submission passes here exactly once: the single place the
        // published/failed events and the inflight gauge are emitted.
        match &result {
            Ok(bd) => {
                self.obs.commits.inc();
                self.obs.commit_bytes.record(bd.total() as u64);
                point!(
                    self.obs.rec,
                    "engine.published",
                    version = sub.version,
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
                    version = sub.version,
                    error = e.to_string()
                );
            }
        }
        {
            let mut r = self.results.lock().unwrap();
            r.done.insert(sub.id, (sub.version, result));
            r.pending -= 1;
            self.obs.inflight.set(r.pending as i64);
        }
        self.results_cv.notify_all();
        if let Some(chain) = &self.chain {
            chain.mark_resolved(sub.version);
        }
        self.gate.release();
    }
}

/// Handle to a running engine. Dropping it drains queued work and joins
/// the workers.
pub struct EngineHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
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
            ("max_staged", cfg.max_staged),
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
        }
        cfg.codec.validate()?;
        let next_version = list_versions(backend.as_ref())?.last().map_or(0, |v| v + 1);
        let shared = Arc::new(Shared {
            chain: cfg.delta.as_ref().map(|_| Chain::new(next_version)),
            obs: EngineObs::new(cfg.recorder.clone()),
            cfg: cfg.clone(),
            backend,
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            task_cv: Condvar::new(),
            space_cv: Condvar::new(),
            results: Mutex::new(ResultsState {
                outstanding: HashSet::new(),
                done: HashMap::new(),
                pending: 0,
                next_id: 0,
            }),
            results_cv: Condvar::new(),
            gate: StagingGate::new(cfg.max_staged),
            next_version: AtomicU64::new(next_version),
            submit_order: Mutex::new(()),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("scrutiny-ckpt-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn checkpoint worker")
            })
            .collect();
        Ok(EngineHandle { shared, workers })
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

    /// Stage a copy of `vars`/`plans` and hand it to the worker pool;
    /// returns as soon as the copy is staged and enqueued. Blocks only
    /// for backpressure (staging gate full or task queue full).
    pub fn submit(&self, vars: &[VarRecord], plans: &[VarPlan]) -> Result<Ticket, EngineError> {
        self.shared.gate.acquire();
        let snapshot = Snapshot::capture(vars, plans);
        let obs = &self.shared.obs;
        let t0 = obs.rec.is_enabled().then(std::time::Instant::now);
        let plan = match plan_shards_with(
            &snapshot.vars,
            &snapshot.plans,
            self.shared.cfg.target_shards,
            self.shared.cfg.codec.lo,
        ) {
            Ok(p) => p,
            Err(e) => {
                self.shared.gate.release();
                return Err(e.into());
            }
        };
        let nshards = plan.shard_count();
        // Version allocation and task enqueueing must be one atomic step
        // with respect to other submitters: if submitter B could push its
        // tasks before submitter A with the older version, a delta-mode
        // finisher for B would park in the turnstile waiting for A while
        // A's tasks sit behind B's in the queue — with few workers (or a
        // full queue) nothing would ever run them. `submit_order` is held
        // across both, so queue order always equals version order.
        // Backpressure waits happen while holding it; workers free queue
        // space without ever taking it, so the wait always makes progress.
        let _order = self.shared.submit_order.lock().unwrap();
        let (id, version) = {
            let mut r = self.shared.results.lock().unwrap();
            let id = r.next_id;
            r.next_id += 1;
            r.outstanding.insert(id);
            r.pending += 1;
            obs.inflight.set(r.pending as i64);
            (id, self.shared.next_version.fetch_add(1, Ordering::Relaxed))
        };
        // The submit span covers task enqueueing — including any
        // backpressure wait on the bounded queue, which is exactly what
        // an operator wants attributed to the submitting thread.
        let submit_span = span!(
            obs.rec,
            "engine.submit",
            version = version,
            shards = nshards
        );
        obs.submissions.inc();
        let sub = Arc::new(Submission {
            id,
            version,
            snapshot,
            plan,
            segments: Mutex::new((0..nshards).map(|_| None).collect()),
            remaining: AtomicUsize::new(nshards),
            resolved: AtomicBool::new(false),
        });
        let mut q = self.shared.queue.lock().unwrap();
        for shard in 0..nshards {
            while q.tasks.len() >= self.shared.cfg.queue_depth {
                q = self.shared.space_cv.wait(q).unwrap();
            }
            q.tasks.push_back(Task {
                sub: sub.clone(),
                shard,
            });
            self.shared.task_cv.notify_one();
        }
        obs.queue_depth.set(q.tasks.len() as i64);
        drop(q);
        drop(submit_span);
        if let Some(t0) = t0 {
            obs.submit_us.record_duration(t0.elapsed());
        }
        Ok(Ticket { id, version })
    }

    /// Block until `ticket`'s submission is durably stored (or failed),
    /// returning its storage accounting. Worker-side failures — backend
    /// errors, serialization errors, even worker panics — surface here.
    pub fn wait(&self, ticket: Ticket) -> Result<StorageBreakdown, EngineError> {
        let mut r = self.shared.results.lock().unwrap();
        loop {
            if let Some((_version, res)) = r.done.remove(&ticket.id) {
                r.outstanding.remove(&ticket.id);
                return res;
            }
            if !r.outstanding.contains(&ticket.id) {
                return Err(EngineError::UnknownTicket(ticket.id));
            }
            r = self.shared.results_cv.wait(r).unwrap();
        }
    }

    /// Block until every outstanding submission resolves; returns
    /// `(version, breakdown)` per unredeemed ticket, oldest first. The
    /// first worker failure (if any) is returned instead.
    pub fn drain(&self) -> Result<Vec<(u64, StorageBreakdown)>, EngineError> {
        let mut r = self.shared.results.lock().unwrap();
        while r.pending > 0 {
            r = self.shared.results_cv.wait(r).unwrap();
        }
        let mut ids: Vec<u64> = r.done.keys().copied().collect();
        ids.sort_unstable();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let (version, res) = r.done.remove(&id).expect("id taken from done");
            r.outstanding.remove(&id);
            match res {
                Ok(bd) => out.push((version, bd)),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Submissions not yet resolved (diagnostic).
    pub fn pending(&self) -> usize {
        self.shared.results.lock().unwrap().pending
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.task_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    shared.obs.queue_depth.set(q.tasks.len() as i64);
                    shared.space_cv.notify_one();
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.task_cv.wait(q).unwrap();
            }
        };
        let sub = task.sub.clone();
        match catch_unwind(AssertUnwindSafe(|| process_task(&shared, &task))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => shared.resolve(&sub, Err(e)),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked with a non-string payload".into());
                shared.resolve(&sub, Err(EngineError::WorkerPanic(msg)));
            }
        }
    }
}

fn process_task(shared: &Shared, task: &Task) -> Result<(), EngineError> {
    let sub = &task.sub;
    let seg = {
        let _span = span!(
            shared.obs.rec,
            "engine.shard_serialize",
            version = sub.version,
            shard = task.shard
        );
        serialize_shard(
            &sub.snapshot.vars,
            &sub.snapshot.plans,
            &sub.plan,
            task.shard,
        )
    };
    sub.segments.lock().unwrap()[task.shard] = Some(seg);
    // The worker finishing the last shard publishes the checkpoint.
    if sub.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish_submission(shared, sub)?;
    }
    Ok(())
}

/// Publish one fully serialized submission: seal the shards, hand the
/// epoch to the one publisher ([`publish_epoch`] decides object names,
/// at-rest compression, write order and accounting for every layout),
/// apply retention, resolve the ticket.
///
/// In delta mode the finisher first waits for its turn in version order,
/// so the publisher diffs against the last image that actually reached
/// the backend; serialization already happened in parallel.
fn finish_submission(shared: &Shared, sub: &Submission) -> Result<(), EngineError> {
    let segments = std::mem::take(&mut *sub.segments.lock().unwrap());
    if segments.iter().any(Option::is_none) {
        // A sibling shard failed and already resolved this submission.
        return Ok(());
    }
    let mut shards = Vec::with_capacity(segments.len());
    let mut payload_bytes = 0usize;
    for seg in segments {
        let (bytes, payload) = seg.expect("checked above");
        payload_bytes += payload;
        shards.push(bytes);
    }
    let (aux, pair_bytes) = serialize_aux(&sub.snapshot.vars, &sub.snapshot.plans);

    let v = sub.version;
    let chain = shared.chain.as_ref().zip(shared.cfg.delta.as_ref());
    // Every layout but `Sharded` publishes one image (delta mode ignores
    // `layout`), sealed before the turnstile: pure CPU work that can
    // overlap other epochs' publishes. Sharded segments go to the
    // publisher as they are; it seals them beside their manifest.
    let one_image = chain.is_some() || shared.cfg.layout == Layout::Monolithic;
    let image = one_image.then(|| seal_image(std::mem::take(&mut shards)));

    // Wait for every older version to resolve; while we hold the turn
    // (turn == v, and only `resolve` advances it) no other finisher can
    // touch the chain, so its state leaves the lock for the I/O below.
    let (prev, deltas_since_base, mut parents) = match chain {
        Some((chain, _)) => {
            let mut s = chain.state.lock().unwrap();
            while s.turn < v {
                s = chain.cv.wait(s).unwrap();
            }
            let parents = std::mem::take(&mut s.parents);
            (s.prev.take(), s.deltas_since_base, parents)
        }
        None => (None, 0, BTreeMap::new()),
    };
    let body = match (&image, chain) {
        (Some(image), Some((_, policy))) => EpochBody::Chained {
            image,
            policy,
            prev: prev.as_ref(),
            deltas_since_base,
        },
        (Some(image), None) => EpochBody::Image(image),
        (None, _) => EpochBody::Sharded { shards },
    };

    let backend = shared.backend.as_ref();
    let obs = &shared.obs;
    let publish = span!(obs.rec, "engine.publish", version = v);
    // What stays the engine's own in the put: the byte counters of the
    // at-rest codec, and the `engine.commit` span around the marker write
    // (the one object whose name carries this committed version). The
    // span is emitted retroactively, only after that write succeeded, so
    // exactly one exists per *published* version — a failed epoch emits
    // `engine.publish_failed` instead — which is what makes a recovery
    // walk reconstructable from the log alone.
    let result = publish_epoch(
        v,
        body,
        payload_bytes,
        (&aux, pair_bytes),
        shared.cfg.codec.at_rest,
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
    );

    // The checkpoint is durably committed here, so retention is
    // best-effort: a transient sweep failure must not resolve the ticket
    // as Err (a caller would resubmit a checkpoint that exists). A
    // version the sweep misses is retried by the next submission's sweep.
    if let (Ok(published), Some(keep)) = (&result, shared.cfg.keep) {
        parents.extend(published.parent.map(|p| (v, p)));
        let _ = prune_chain_aware(backend, keep, &mut parents);
    }
    if let Some((chain, _)) = chain {
        let mut s = chain.state.lock().unwrap();
        match &result {
            Ok(published) => {
                s.prev = image.map(|image| (v, image));
                s.deltas_since_base = published.deltas_since_base;
            }
            // This epoch never reached the backend: the chain's parent is
            // still the previous image; the next epoch patches that.
            Err(_) => s.prev = prev,
        }
        s.parents = parents;
    }
    // Close the publish span before the ticket resolves: a waiter may
    // snapshot the recorder the moment `wait` returns, and must not see
    // its own completed epoch as an open span.
    drop(publish);
    shared.resolve(sub, result.map(|p| p.stored).map_err(Into::into));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{read_version, MemBackend};
    use scrutiny_ckpt::writer::serialize;
    use scrutiny_ckpt::{AtRest, Bitmap, Checkpoint, FillPolicy, Regions, VarData};

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
                max_staged: 0,
                ..Default::default()
            },
            EngineConfig {
                keep: Some(0),
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
        drop(eng); // joins workers; queued serialization must complete
        assert!(read_version(mem.as_ref(), v).is_ok());
    }
}
