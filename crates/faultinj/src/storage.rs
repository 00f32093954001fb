//! Storage-level fault injection: damage checkpoint *objects* (files,
//! backend entries), not restored in-memory values.
//!
//! [`crate::campaign`] corrupts restored element values to falsify the
//! criticality maps; this module corrupts the checkpoint bytes
//! *at rest* — the failure mode the recovery pipeline
//! ([`scrutiny_engine::RecoveryManager`]) exists for. A scenario picks
//! the structurally interesting object of a version (a shard, a delta
//! link's base, the commit marker) and damages it through the
//! [`StorageBackend`] interface, so the same campaigns run against a
//! directory store, an in-memory backend, or a remote daemon.
//!
//! Every scenario must end, per §IV.C economics, in a *successful*
//! recovery to an older verified version — asserted end to end by
//! `tests/recovery_faultinj.rs` and the NPB wiring in
//! `scrutiny-npb::pipeline::burn_in`.

use scrutiny_ckpt::names::{self, CkptName};
use scrutiny_ckpt::{delta, CkptError};
use scrutiny_engine::StorageBackend;

/// How one stored object is damaged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// Drop the last `bytes` bytes (an interrupted or torn write that
    /// somehow became visible — e.g. a storage tier without atomic
    /// publication).
    TruncateTail {
        /// Bytes removed from the end (clamped to the object size).
        bytes: usize,
    },
    /// XOR one byte with 0xFF (media bit rot; `offset` is clamped into
    /// the object).
    FlipByte {
        /// Byte offset to damage.
        offset: usize,
    },
    /// Remove the object entirely (lost or evicted).
    Delete,
}

impl StorageFault {
    /// Apply this fault to `name` in `backend`. Damaging a missing
    /// object is an error — a silent no-op would let a campaign claim
    /// coverage it never exercised.
    pub fn apply(&self, backend: &dyn StorageBackend, name: &str) -> Result<(), CkptError> {
        match *self {
            StorageFault::TruncateTail { bytes } => {
                let mut obj = backend.get(name)?;
                obj.truncate(obj.len().saturating_sub(bytes));
                backend.put(name, &obj)
            }
            StorageFault::FlipByte { offset } => {
                let mut obj = backend.get(name)?;
                if obj.is_empty() {
                    return Err(CkptError::InvalidConfig(format!(
                        "cannot flip a byte of empty object {name:?}"
                    )));
                }
                let at = offset.min(obj.len() - 1);
                obj[at] ^= 0xFF;
                backend.put(name, &obj)
            }
            StorageFault::Delete => {
                // Probe first: delete is idempotent by contract, and a
                // campaign must not "delete" something that never existed.
                backend.get(name)?;
                backend.delete(name)
            }
        }
    }
}

/// A named corruption scenario against one checkpoint version — the
/// recovery test matrix. Each picks the structurally interesting object
/// itself, so campaigns stay layout-aware without hand-written paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageScenario {
    /// Truncate the version's first data shard (sharded layout): the
    /// manifest's per-shard length/CRC must pin it.
    TruncatedShard,
    /// Flip a payload byte in the version's commit-marker object (data,
    /// shard, or delta file): the envelope CRC must catch it.
    FlippedPayloadByte,
    /// Delete the full base image a delta version's chain anchors on:
    /// every version of that chain must become unrecoverable, and
    /// recovery must fall past the whole chain.
    DeletedDeltaBase,
    /// Delete the version's commit marker(s) while leaving its other
    /// artifacts: the version must read as uncommitted, named in the
    /// recovery report, never as a half-alive checkpoint.
    MissingCommitMarker,
    /// Flip a byte inside the *compressed payload* of a version's
    /// `SCRUTCZB` container object (data, delta, or first shard): the
    /// container's trailer CRC — computed over the **stored** bytes —
    /// must reject it with a typed checksum error before the codec ever
    /// runs, and recovery must fall back. Requires a version written
    /// with at-rest compression enabled; a version with no compressed
    /// object is [`CkptError::InvalidConfig`].
    FlippedCompressedByte,
}

/// The objects of `version` present in `listing`, as
/// `(data, manifest, first_shard, delta)` names.
struct VersionObjects {
    data: Option<String>,
    manifest: Option<String>,
    shard0: Option<String>,
    delta: Option<String>,
}

fn objects_of(backend: &dyn StorageBackend, version: u64) -> Result<VersionObjects, CkptError> {
    let mut o = VersionObjects {
        data: None,
        manifest: None,
        shard0: None,
        delta: None,
    };
    for name in backend.list()? {
        match names::classify(&name) {
            CkptName::Data(v) if v == version => o.data = Some(name),
            CkptName::Manifest(v) if v == version => o.manifest = Some(name),
            CkptName::Shard { version: v, shard } if v == version && shard == 0 => {
                o.shard0 = Some(name)
            }
            CkptName::Delta(v) if v == version => o.delta = Some(name),
            _ => {}
        }
    }
    Ok(o)
}

impl StorageScenario {
    /// The scenario's stable lower-snake name, as it appears in the
    /// `faultinj.inject` observability events.
    pub fn name(&self) -> &'static str {
        match self {
            StorageScenario::TruncatedShard => "truncated_shard",
            StorageScenario::FlippedPayloadByte => "flipped_payload_byte",
            StorageScenario::DeletedDeltaBase => "deleted_delta_base",
            StorageScenario::MissingCommitMarker => "missing_commit_marker",
            StorageScenario::FlippedCompressedByte => "flipped_compressed_byte",
        }
    }

    /// [`StorageScenario::inject`], reporting the injection into a
    /// [`Recorder`](scrutiny_obs::Recorder): a `faultinj.inject` event
    /// names the scenario, the
    /// target version, and the damaged object (or the typed error), so
    /// a recovery log read end-to-end shows *why* versions started
    /// failing verification — the injection is part of the experiment's
    /// record, not an invisible hand.
    pub fn inject_obs(
        &self,
        backend: &dyn StorageBackend,
        version: u64,
        rec: &scrutiny_obs::Recorder,
    ) -> Result<String, CkptError> {
        let result = self.inject(backend, version);
        match &result {
            Ok(object) => rec.event(
                "faultinj.inject",
                &[
                    ("scenario", self.name().into()),
                    ("version", version.into()),
                    ("object", object.as_str().into()),
                ],
            ),
            Err(e) => rec.event(
                "faultinj.inject",
                &[
                    ("scenario", self.name().into()),
                    ("version", version.into()),
                    ("error", e.to_string().into()),
                ],
            ),
        }
        result
    }

    /// Inject this scenario against checkpoint `version` in `backend`;
    /// returns the name of the (primary) damaged object. Asking for a
    /// scenario the version's layout cannot express (e.g. a truncated
    /// shard of a monolithic checkpoint) is
    /// [`CkptError::InvalidConfig`] — campaigns must fail loudly rather
    /// than silently test nothing.
    pub fn inject(&self, backend: &dyn StorageBackend, version: u64) -> Result<String, CkptError> {
        let objects = objects_of(backend, version)?;
        match self {
            StorageScenario::TruncatedShard => {
                let name = objects.shard0.ok_or_else(|| {
                    CkptError::InvalidConfig(format!(
                        "version {version} has no data shards to truncate"
                    ))
                })?;
                // An odd cut: breaks both the shard length and its CRC.
                StorageFault::TruncateTail { bytes: 7 }.apply(backend, &name)?;
                Ok(name)
            }
            StorageScenario::FlippedPayloadByte => {
                let name = objects
                    .data
                    .or(objects.delta)
                    .or(objects.shard0)
                    .ok_or_else(|| {
                        CkptError::InvalidConfig(format!(
                            "version {version} has no payload object to damage"
                        ))
                    })?;
                let len = backend.get(&name)?.len();
                // Past every header, inside the element payload.
                StorageFault::FlipByte { offset: len / 2 }.apply(backend, &name)?;
                Ok(name)
            }
            StorageScenario::DeletedDeltaBase => {
                if objects.delta.is_none() || objects.data.is_some() || objects.manifest.is_some() {
                    return Err(CkptError::InvalidConfig(format!(
                        "version {version} is not a delta checkpoint"
                    )));
                }
                // Walk parent pointers to the chain's anchoring full image.
                let mut v = version;
                loop {
                    let d = backend.get(&names::delta(v))?;
                    let parent = delta::parent_version(&d)?;
                    let po = objects_of(backend, parent)?;
                    if po.data.is_some() || po.manifest.is_some() {
                        let name = po.data.unwrap_or_else(|| po.manifest.unwrap());
                        StorageFault::Delete.apply(backend, &name)?;
                        return Ok(name);
                    }
                    if po.delta.is_none() || parent >= v {
                        return Err(CkptError::Corrupt(format!(
                            "chain from {version} never reaches a full base"
                        )));
                    }
                    v = parent;
                }
            }
            StorageScenario::FlippedCompressedByte => {
                // Among the version's payload objects, find one stored as
                // an SCRUTCZB container and damage its compressed payload
                // (past the container header, before the CRC trailer).
                for name in [objects.data, objects.delta, objects.shard0]
                    .into_iter()
                    .flatten()
                {
                    let obj = backend.get(&name)?;
                    if !scrutiny_ckpt::compress::is_container(&obj) {
                        continue;
                    }
                    // Header is 25 bytes, trailer CRC 4; flip in between.
                    let lo = 25.min(obj.len() - 1);
                    let hi = obj.len().saturating_sub(4).max(lo + 1);
                    StorageFault::FlipByte {
                        offset: lo + (hi - lo) / 2,
                    }
                    .apply(backend, &name)?;
                    return Ok(name);
                }
                Err(CkptError::InvalidConfig(format!(
                    "version {version} has no compressed (SCRUTCZB) object \
                     to damage — was it written with at-rest compression?"
                )))
            }
            StorageScenario::MissingCommitMarker => {
                let markers: Vec<String> = [objects.data, objects.manifest, objects.delta]
                    .into_iter()
                    .flatten()
                    .collect();
                let first = markers.first().cloned().ok_or_else(|| {
                    CkptError::InvalidConfig(format!("version {version} has no commit marker"))
                })?;
                for m in &markers {
                    StorageFault::Delete.apply(backend, m)?;
                }
                Ok(first)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_engine::MemBackend;

    #[test]
    fn faults_mutate_objects_as_described() {
        let b = MemBackend::new();
        b.put("x", &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        StorageFault::TruncateTail { bytes: 3 }
            .apply(&b, "x")
            .unwrap();
        assert_eq!(b.get("x").unwrap(), [1, 2, 3, 4, 5]);
        StorageFault::FlipByte { offset: 0 }.apply(&b, "x").unwrap();
        assert_eq!(b.get("x").unwrap(), [254, 2, 3, 4, 5]);
        StorageFault::Delete.apply(&b, "x").unwrap();
        assert!(b.get("x").is_err());
        // Faulting a missing object is an error, not a no-op.
        assert!(StorageFault::Delete.apply(&b, "x").is_err());
        assert!(StorageFault::FlipByte { offset: 0 }
            .apply(&b, "gone")
            .is_err());
    }

    #[test]
    fn scenarios_reject_incompatible_layouts() {
        let b = MemBackend::new();
        b.put(&names::data(3), &[0u8; 64]).unwrap();
        b.put(&names::aux(3), &[0u8; 16]).unwrap();
        // Monolithic version: no shard to truncate, not a delta.
        assert!(matches!(
            StorageScenario::TruncatedShard.inject(&b, 3),
            Err(CkptError::InvalidConfig(_))
        ));
        assert!(matches!(
            StorageScenario::DeletedDeltaBase.inject(&b, 3),
            Err(CkptError::InvalidConfig(_))
        ));
        // And a version with no artifacts at all.
        assert!(StorageScenario::FlippedPayloadByte.inject(&b, 9).is_err());
        assert!(StorageScenario::MissingCommitMarker.inject(&b, 9).is_err());
    }

    #[test]
    fn flipped_compressed_byte_damages_the_container_payload() {
        use scrutiny_ckpt::compress::{compress, decompress, AtRest};
        let b = MemBackend::new();
        // A raw-only version cannot express the scenario.
        b.put(&names::data(1), &[7u8; 128]).unwrap();
        assert!(matches!(
            StorageScenario::FlippedCompressedByte.inject(&b, 1),
            Err(CkptError::InvalidConfig(_))
        ));
        // A compressed version can — and the damage is a typed checksum
        // rejection, not garbage decode output.
        let stored = compress(&[42u8; 4096], AtRest::Rle);
        b.put(&names::data(2), &stored).unwrap();
        let damaged = StorageScenario::FlippedCompressedByte
            .inject(&b, 2)
            .unwrap();
        assert_eq!(damaged, names::data(2));
        let obj = b.get(&names::data(2)).unwrap();
        assert_ne!(obj, stored, "the object must actually change");
        assert!(matches!(
            decompress(&obj),
            Err(CkptError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn missing_commit_marker_removes_marker_but_keeps_artifacts() {
        let b = MemBackend::new();
        b.put(&names::data(1), &[0u8; 64]).unwrap();
        b.put(&names::aux(1), &[0u8; 16]).unwrap();
        let damaged = StorageScenario::MissingCommitMarker.inject(&b, 1).unwrap();
        assert_eq!(damaged, names::data(1));
        assert!(b.get(&names::data(1)).is_err());
        assert!(b.get(&names::aux(1)).is_ok(), "aux must survive");
    }
}
