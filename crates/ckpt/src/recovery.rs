//! Recovery: the one fallback walk, [`recover_latest`], behind
//! [`crate::CheckpointStore::recover_latest`] and the engine's
//! `RecoveryManager`. Several versions are kept so that a damaged newest
//! checkpoint is an inconvenience, not a lost run ("save several versions
//! of checkpoint files to make the data more durable", paper §II.A):
//!
//! 1. The walk lists the backend once. Every version that left *any* artifact is
//!    a candidate — including ones whose commit marker is missing, so
//!    the report can name them instead of silently skipping them.
//! 2. Newest-first, fully verifies each candidate: commit marker and
//!    auxiliary file present, every shard/delta CRC good (checked
//!    concurrently by [`crate::restore`]), delta parents resolvable, and
//!    the assembled image parsing through [`Checkpoint::from_bytes`].
//! 3. An *integrity* failure (bad CRC, truncation, missing object,
//!    broken delta parent) rejects the candidate and the walk goes on;
//!    an *environmental* failure (permissions, I/O other than not-found,
//!    a policy refusal) aborts — older versions cannot fix a dead disk,
//!    and silently degrading to one would hide it.
//!
//! The outcome is a [`Recovered`] checkpoint plus a [`RecoveryReport`]
//! naming every rejected version and why; if nothing verifies,
//! [`CkptError::Unrecoverable`] carries the same report. The walk's span
//! and events keep their `engine.recovery.*` names, which
//! [`RecoveryWalk::from_snapshot`] reads back.

use crate::backend::StorageBackend;
use crate::delta::committed_kinds;
use crate::format::CkptError;
use crate::names;
use crate::reader::Checkpoint;
use crate::restore::{read_data_image_parallel_obs, RestoreOptions, RestoreStats};
use scrutiny_obs::{span, Recorder, Snapshot};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Mutex;

/// Tuning knobs for a recovery walk.
#[derive(Clone, Debug, Default)]
pub struct RecoveryConfig {
    /// Worker threads for the parallel restore of each candidate
    /// (see [`RestoreOptions::threads`]; 0 — the default — is auto,
    /// 1 is serial).
    pub threads: usize,
    /// Observability sink for the walk: candidate/reject/recovered
    /// events, the `engine.recovery.scan` span, and the winning
    /// restore's `ckpt.restore.*` telemetry all land here. Defaults to
    /// [`Recorder::disabled`] (no overhead).
    pub recorder: Recorder,
}

/// One candidate the walk examined and refused, and the typed reason.
#[derive(Debug)]
pub struct RejectedVersion {
    /// The checkpoint version that failed verification.
    pub version: u64,
    /// Why it failed (the restore/parse error, or a missing commit
    /// marker).
    pub error: CkptError,
}

/// What a recovery walk did: which versions it examined, which it
/// rejected and why, and what the winning restore looked like.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// The version that recovered, if any.
    pub recovered: Option<u64>,
    /// Every rejected candidate, newest first, with its typed reason.
    pub rejected: Vec<RejectedVersion>,
    /// Candidates examined (rejected plus the winner, if any).
    pub scanned: usize,
    /// Pipeline stats of the winning restore.
    pub restore: Option<RestoreStats>,
}

impl RecoveryReport {
    /// The rejected versions, newest first (convenience for asserts and
    /// log lines; the full reasons live in [`RecoveryReport::rejected`]).
    pub fn rejected_versions(&self) -> Vec<u64> {
        self.rejected.iter().map(|r| r.version).collect()
    }
}

/// A successfully recovered checkpoint: the verified byte images, the
/// parsed form, and the walk's report.
///
/// Holding both the raw images and the parsed [`Checkpoint`] is
/// deliberate — the images are what bit-identity audits and re-publish
/// paths need, and they already exist when verification finishes — but
/// it does mean roughly twice the checkpoint's footprint is live until
/// one side is dropped. Callers that only materialize variables should
/// move `checkpoint` out and drop the rest.
pub struct Recovered {
    /// Version that verified.
    pub version: u64,
    /// Its reconstructed data-file image (bit-identical to a serial
    /// load).
    pub data: Vec<u8>,
    /// Its auxiliary-file image.
    pub aux: Vec<u8>,
    /// The parsed checkpoint, ready for materialization.
    pub checkpoint: Checkpoint,
    /// What the walk rejected on the way, and the restore stats.
    pub report: RecoveryReport,
}

// `Checkpoint` holds parsed payloads and has no `Debug`; summarize.
impl std::fmt::Debug for Recovered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recovered")
            .field("version", &self.version)
            .field("data_bytes", &self.data.len())
            .field("aux_bytes", &self.aux.len())
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// Is this error a *statement about the checkpoint* (damaged, truncated,
/// missing pieces) rather than about the environment? Integrity failures
/// make the walk fall back; environmental ones abort it.
fn is_integrity_failure(e: &CkptError) -> bool {
    match e {
        CkptError::Corrupt(_)
        | CkptError::ChecksumMismatch { .. }
        | CkptError::MissingVar(_)
        | CkptError::PlanMismatch(_) => true,
        CkptError::Io(io) => io.kind() == std::io::ErrorKind::NotFound,
        // Policy refusals (quota, backpressure, drain), bad
        // configuration and a finished walk say nothing about the
        // stored bytes of one version: abort.
        CkptError::InvalidConfig(_) | CkptError::Rejected(_) | CkptError::Unrecoverable(_) => false,
    }
}

/// One walk's view of the backend: the listing the walk took answers
/// "is there such an object" — layout probing (`.data`, then `.smf`,
/// then `.delta`, per chain link) costs no round trip for the names that
/// are not there — and the objects fetched for a candidate's *ancestors*
/// are kept, because a fallback candidate restores through the same
/// links and base. An object is written once under its versioned name,
/// so a kept copy is the object. A candidate's own objects are not kept
/// (or no longer, once it is their turn): no older version restores
/// through them.
struct ScanReads<'a> {
    backend: &'a dyn StorageBackend,
    listed: HashSet<&'a str>,
    kept: Mutex<HashMap<String, Vec<u8>>>,
}

impl<'a> ScanReads<'a> {
    fn new(backend: &'a dyn StorageBackend, listing: &'a [String]) -> Self {
        ScanReads {
            backend,
            listed: listing.iter().map(String::as_str).collect(),
            kept: Mutex::new(HashMap::new()),
        }
    }

    /// Fetch `name` while restoring `candidate`. A name the listing does
    /// not hold is `NotFound` without asking; an object that vanished
    /// since the listing still is, from the backend.
    fn get(&self, candidate: u64, name: &str) -> Result<Vec<u8>, CkptError> {
        if !self.listed.contains(name) {
            return Err(CkptError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no object named {name:?} in the scan's listing"),
            )));
        }
        // Kept only if an older candidate could ask again; the
        // candidate's own objects are handed over for good.
        let ancestor = names::classify(name)
            .version()
            .is_some_and(|v| v < candidate);
        let mut kept = self.kept.lock().unwrap();
        let hit = if ancestor {
            kept.get(name).cloned()
        } else {
            kept.remove(name)
        };
        drop(kept);
        if let Some(bytes) = hit {
            return Ok(bytes);
        }
        let bytes = self.backend.get(name)?;
        if ancestor {
            let mut kept = self.kept.lock().unwrap();
            kept.insert(name.to_string(), bytes.clone());
        }
        Ok(bytes)
    }
}

/// Fully verify and restore one version: commit marker present, image
/// reconstructed with every CRC checked, auxiliary file read, and the
/// pair parsed through [`Checkpoint::from_bytes`]. No fallback — the
/// typed error says exactly what is wrong with *this* version. Cheap
/// checks run first: the commit marker and the small auxiliary file
/// reject a broken candidate before any shard is fetched or hashed.
fn restore_committed(
    version: u64,
    committed: &[(u64, bool)],
    reads: &ScanReads<'_>,
    cfg: &RecoveryConfig,
) -> Result<(Vec<u8>, Vec<u8>, Checkpoint, RestoreStats), CkptError> {
    if committed
        .binary_search_by_key(&version, |&(v, _)| v)
        .is_err()
    {
        return Err(CkptError::Corrupt(format!(
            "version {version} has checkpoint artifacts but no commit marker \
             (data, manifest, or delta file)"
        )));
    }
    let aux = reads.get(version, &names::aux(version))?;
    let (data, stats) = read_data_image_parallel_obs(
        version,
        &|name: &str| reads.get(version, name),
        &RestoreOptions {
            threads: cfg.threads,
        },
        &cfg.recorder,
    )?;
    let checkpoint = Checkpoint::from_bytes(&data, &aux)?;
    Ok((data, aux, checkpoint, stats))
}

/// Restore the newest checkpoint in `backend` that fully verifies,
/// walking back across versions that do not (see the
/// [module docs](self)). One listing yields both the candidates (every
/// version with an artifact) and the committed set, so the two views
/// agree. Returns the recovered checkpoint with a report naming every
/// rejected version; if no candidate verifies,
/// [`CkptError::Unrecoverable`] carries the same report.
pub fn recover_latest(
    backend: &dyn StorageBackend,
    cfg: &RecoveryConfig,
) -> Result<Recovered, CkptError> {
    let rec = &cfg.recorder;
    let listing = backend.list()?;
    let committed = committed_kinds(&listing);
    let candidates: BTreeSet<u64> = listing
        .iter()
        .filter_map(|name| names::classify(name).version())
        .collect();
    let reads = ScanReads::new(backend, &listing);
    let _scan = span!(rec, "engine.recovery.scan", candidates = candidates.len());
    let mut report = RecoveryReport::default();
    for version in candidates.into_iter().rev() {
        report.scanned += 1;
        rec.event("engine.recovery.candidate", &[("version", version.into())]);
        match restore_committed(version, &committed, &reads, cfg) {
            Ok((data, aux, checkpoint, stats)) => {
                rec.event(
                    "engine.recovery.recovered",
                    &[
                        ("version", version.into()),
                        ("data_bytes", data.len().into()),
                        ("aux_bytes", aux.len().into()),
                        ("rejected", report.rejected.len().into()),
                    ],
                );
                report.recovered = Some(version);
                report.restore = Some(stats);
                return Ok(Recovered {
                    version,
                    data,
                    aux,
                    checkpoint,
                    report,
                });
            }
            Err(e) if is_integrity_failure(&e) => {
                rec.event(
                    "engine.recovery.reject",
                    &[
                        ("version", version.into()),
                        ("reason", e.to_string().into()),
                    ],
                );
                report.rejected.push(RejectedVersion { version, error: e });
            }
            Err(e) => {
                rec.event(
                    "engine.recovery.abort",
                    &[("version", version.into()), ("error", e.to_string().into())],
                );
                return Err(e);
            }
        }
    }
    Err(CkptError::Unrecoverable(Box::new(report)))
}

/// The shape of a recovery walk reconstructed **from the observability
/// log alone** — no [`RecoveryReport`] in hand. This is the
/// log-completeness contract of the recovery events: everything a
/// post-mortem needs (what was examined, what was refused and why, what
/// won) survives the trip through JSONL.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryWalk {
    /// Versions examined, in walk order (newest first).
    pub candidates: Vec<u64>,
    /// `(version, reason)` for every rejected candidate, in walk order.
    pub rejected: Vec<(u64, String)>,
    /// The version that recovered, if the walk succeeded.
    pub recovered: Option<u64>,
}

impl RecoveryWalk {
    /// Rebuild the walk from the `engine.recovery.*` events of a
    /// snapshot (live, or parsed back from JSONL).
    pub fn from_snapshot(snap: &Snapshot) -> RecoveryWalk {
        let mut walk = RecoveryWalk::default();
        for ev in &snap.events {
            if ev.kind != scrutiny_obs::EventKind::Point {
                continue;
            }
            match ev.name.as_str() {
                "engine.recovery.candidate" => {
                    if let Some(v) = ev.field_u64("version") {
                        walk.candidates.push(v);
                    }
                }
                "engine.recovery.reject" => {
                    if let Some(v) = ev.field_u64("version") {
                        let reason = ev.field_str("reason").unwrap_or_default();
                        walk.rejected.push((v, reason.to_string()));
                    }
                }
                "engine.recovery.recovered" => {
                    walk.recovered = ev.field_u64("version");
                }
                _ => {}
            }
        }
        walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::compress::AtRest;
    use crate::delta::{publish_epoch, EpochBody};
    use crate::shard::{plan_shards, serialize_shard};
    use crate::writer::serialize;
    use crate::{VarData, VarPlan, VarRecord};

    fn state(tag: f64) -> (Vec<VarRecord>, Vec<VarPlan>) {
        (
            vec![VarRecord::new(
                "u",
                VarData::F64((0..300).map(|i| i as f64 + tag).collect()),
            )],
            vec![VarPlan::Full],
        )
    }

    /// `epochs` versions published into a fresh `MemBackend`, each
    /// monolithic or split into three shards.
    fn filled_backend(sharded: bool, epochs: u64) -> MemBackend {
        let mem = MemBackend::new();
        for e in 0..epochs {
            let (vars, plans) = state(e as f64 * 0.5);
            let ser = serialize(&vars, &plans).unwrap();
            let body = if sharded {
                let plan = plan_shards(&vars, &plans, 3).unwrap();
                let shards = (0..plan.shard_count())
                    .map(|i| serialize_shard(&vars, &plans, &plan, i).0)
                    .collect();
                EpochBody::Sharded { shards }
            } else {
                EpochBody::Image(&ser.data)
            };
            publish_epoch(
                e,
                body,
                ser.breakdown.payload_bytes,
                (&ser.aux, ser.breakdown.aux_bytes),
                AtRest::None,
                &Recorder::disabled(),
                |name, bytes, _| mem.put(name, bytes),
            )
            .unwrap();
        }
        mem
    }

    fn recover(mem: &MemBackend) -> Result<Recovered, CkptError> {
        recover_latest(mem, &RecoveryConfig::default())
    }

    #[test]
    fn clean_backend_recovers_newest() {
        let mem = filled_backend(false, 3);
        let r = recover(&mem).unwrap();
        assert_eq!(r.version, 2);
        assert!(r.report.rejected.is_empty());
        assert_eq!(r.report.scanned, 1);
        assert!(r.checkpoint.var("u").is_ok());
    }

    #[test]
    fn corrupt_newest_falls_back_with_named_rejection() {
        let mem = filled_backend(true, 3);
        // Flip a payload byte of version 2's first shard.
        let name = names::shard(2, 0);
        let mut bytes = mem.get(&name).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        mem.put(&name, &bytes).unwrap();

        let r = recover(&mem).unwrap();
        assert_eq!(r.version, 1);
        assert_eq!(r.report.rejected_versions(), vec![2]);
        assert!(matches!(
            r.report.rejected[0].error,
            CkptError::ChecksumMismatch { .. }
        ));
        assert_eq!(r.report.scanned, 2);
    }

    #[test]
    fn version_without_commit_marker_is_named_not_skipped() {
        let mem = filled_backend(false, 2);
        mem.delete(&names::data(1)).unwrap(); // aux survives

        let r = recover(&mem).unwrap();
        assert_eq!(r.version, 0);
        assert_eq!(r.report.rejected_versions(), vec![1]);
        let msg = r.report.rejected[0].error.to_string();
        assert!(msg.contains("commit marker"), "{msg}");
    }

    #[test]
    fn nothing_recoverable_is_a_typed_error_with_the_report() {
        let mem = filled_backend(false, 2);
        for v in 0..2u64 {
            let name = names::data(v);
            let mut bytes = mem.get(&name).unwrap();
            bytes[20] ^= 0xFF;
            mem.put(&name, &bytes).unwrap();
        }
        match recover(&mem) {
            Err(CkptError::Unrecoverable(report)) => {
                assert_eq!(report.rejected_versions(), vec![1, 0]);
                assert_eq!(report.scanned, 2);
                assert!(!is_integrity_failure(&CkptError::Unrecoverable(report)));
            }
            other => panic!("expected Unrecoverable, got {:?}", other.map(|r| r.version)),
        }
    }
}
