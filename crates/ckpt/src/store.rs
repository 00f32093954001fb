//! Versioned checkpoint store: the operational wrapper HPC users expect
//! ("save several versions of checkpoint files to make the data more
//! durable" — paper §II.A), with keep-last-k retention.
//!
//! The store is the *blocking face* of the code the async engine runs:
//! it holds a [`DirBackend`] (any backend, through `over`), and saving,
//! listing, loading, restarting and chain-aware retention are
//! [`publish_epoch`], [`list_versions`], [`read_version`],
//! [`recovery::recover_latest`] and [`prune_chain_aware`] over it — so a
//! directory the engine published into opens here unchanged, the two
//! write byte-identical objects for the same state, and both restart to
//! the same version.

use crate::backend::{list_versions, prune_chain_aware, read_version, DirBackend, StorageBackend};
use crate::compress::CodecConfig;
use crate::delta::{committed_kinds, publish_epoch, DeltaPolicy, EpochBody};
use crate::format::{CkptError, StorageBreakdown, VarPlan, VarRecord};
use crate::names::{classify, CkptName};
use crate::reader::Checkpoint;
use crate::recovery::{self, Recovered, RecoveryConfig};
use crate::writer::serialize_with;
use scrutiny_obs::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A directory of numbered checkpoints with bounded retention.
pub struct CheckpointStore {
    backend: Box<dyn StorageBackend>,
    keep: usize,
    next_version: u64,
    /// Delta-chain state: the last saved data-file image and its version,
    /// plus how many consecutive deltas the chain has grown since its
    /// base. Per-open: the first [`CheckpointStore::save_delta`] after
    /// `open` always writes a full base (chains never span reopens).
    /// The cached image is always the *raw* (uncompressed) serialized
    /// bytes — deltas diff canonical images, never stored containers.
    chain: Option<(u64, Vec<u8>)>,
    deltas_since_base: usize,
    /// Parent of every live delta saved since `open`: what retention
    /// would otherwise fetch each delta to read (see
    /// [`prune_chain_aware`]).
    parents: BTreeMap<u64, u64>,
    codec: CodecConfig,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("backend", &self.backend.label())
            .field("keep", &self.keep)
            .field("next_version", &self.next_version)
            .field("codec", &self.codec)
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// Open (or create) a store; keeps at most `keep` newest checkpoints.
    ///
    /// Opening also sweeps debris left by interrupted writes: `.tmp`
    /// files, auxiliary files with no surviving data file, and data
    /// shards whose manifest was never published.
    ///
    /// The sweep cannot distinguish a crashed writer's debris from a
    /// *live* writer's in-flight files, so do not open a store on a
    /// directory an async engine is concurrently publishing into —
    /// `drain()` the engine (or wait its tickets) first.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, CkptError> {
        Self::over(Box::new(DirBackend::open(dir)?), keep)
    }

    /// [`CheckpointStore::open`] over any backend.
    pub fn over(backend: Box<dyn StorageBackend>, keep: usize) -> Result<Self, CkptError> {
        if keep == 0 {
            return Err(CkptError::InvalidConfig(
                "a store must retain at least one checkpoint (keep >= 1)".into(),
            ));
        }
        Self::sweep_orphans(backend.as_ref())?;
        let next_version = list_versions(backend.as_ref())?.last().map_or(0, |v| v + 1);
        Ok(CheckpointStore {
            backend,
            keep,
            next_version,
            chain: None,
            deltas_since_base: 0,
            parents: BTreeMap::new(),
            codec: CodecConfig::default(),
        })
    }

    /// Set the storage codec for subsequent saves (builder style). The
    /// default [`CodecConfig`] is a strict passthrough — every byte
    /// stream identical to a store without compression. Reads are
    /// codec-oblivious either way: the loaders sniff the `SCRUTCZB`
    /// container magic per object, so one store can hold a mix of
    /// compressed and raw checkpoints (e.g. after changing the codec
    /// mid-run, or when readers predate the writer's config).
    pub fn with_codec(mut self, codec: CodecConfig) -> Result<Self, CkptError> {
        codec.validate()?;
        self.codec = codec;
        Ok(self)
    }

    /// Delete objects interrupted writes leave behind. Every writer puts
    /// the commit marker last (see [`publish_epoch`]), so `.tmp` files
    /// are always debris, and so is every object (`.aux`, shards) of a
    /// version with no commit marker (data file, manifest, or delta).
    fn sweep_orphans(backend: &dyn StorageBackend) -> Result<(), CkptError> {
        let listing = backend.list()?;
        let committed = committed_kinds(&listing);
        for name in &listing {
            let kind = classify(name);
            let doomed = kind == CkptName::Tmp
                || kind
                    .version()
                    .is_some_and(|v| committed.binary_search_by_key(&v, |&(c, _)| c).is_err());
            if doomed {
                let _ = backend.delete(name);
            }
        }
        Ok(())
    }

    /// Write the next checkpoint version; prunes old versions beyond the
    /// retention limit. Returns `(version, storage)`.
    pub fn save(
        &mut self,
        vars: &[VarRecord],
        plans: &[VarPlan],
    ) -> Result<(u64, StorageBreakdown), CkptError> {
        self.publish(vars, plans, None)
    }

    /// Write the next checkpoint version as part of a base+delta chain:
    /// the first call (and every call after `policy.rebase_every`
    /// consecutive deltas) writes a full base; the calls in between write
    /// only the pages of the serialized (AD-pruned) data file that
    /// changed since the previous epoch, as a `ckpt_v.delta` file (see
    /// [`crate::delta`]). Every version — base or delta — loads through
    /// [`CheckpointStore::load`] like any other checkpoint.
    pub fn save_delta(
        &mut self,
        vars: &[VarRecord],
        plans: &[VarPlan],
        policy: &DeltaPolicy,
    ) -> Result<(u64, StorageBreakdown), CkptError> {
        policy.validate()?;
        self.publish(vars, plans, Some(policy))
    }

    /// Serialize, publish through the one publisher ([`publish_epoch`] —
    /// layout, compression, write order and accounting are its), then
    /// apply retention.
    fn publish(
        &mut self,
        vars: &[VarRecord],
        plans: &[VarPlan],
        chained: Option<&DeltaPolicy>,
    ) -> Result<(u64, StorageBreakdown), CkptError> {
        let version = self.next_version;
        let ser = serialize_with(vars, plans, self.codec.lo)?;
        let body = match chained {
            None => EpochBody::Image(&ser.data),
            Some(policy) => EpochBody::Chained {
                image: &ser.data,
                policy,
                prev: self.chain.as_ref(),
                deltas_since_base: self.deltas_since_base,
            },
        };
        let published = publish_epoch(
            version,
            body,
            ser.breakdown.payload_bytes,
            (&ser.aux, ser.breakdown.aux_bytes),
            self.codec.at_rest,
            &Recorder::disabled(),
            |name, bytes, _| self.backend.put(name, bytes),
        )?;
        self.deltas_since_base = published.deltas_since_base;
        self.parents.extend(published.parent.map(|p| (version, p)));
        // A full save outside the delta API breaks the in-memory chain
        // state; the next save_delta starts a fresh base.
        self.chain = chained.map(|_| (version, ser.data));
        self.next_version += 1;
        prune_chain_aware(self.backend.as_ref(), self.keep, &mut self.parents)?;
        Ok((version, published.stored))
    }

    /// Versions currently on disk, oldest first.
    pub fn versions(&self) -> Result<Vec<u64>, CkptError> {
        list_versions(self.backend.as_ref())
    }

    /// Newest version, if any checkpoint exists.
    pub fn latest(&self) -> Result<Option<u64>, CkptError> {
        Ok(self.versions()?.last().copied())
    }

    /// Load a specific version, in whatever layout it was published.
    pub fn load(&self, version: u64) -> Result<Checkpoint, CkptError> {
        let (data, aux) = read_version(self.backend.as_ref(), version)?;
        Checkpoint::from_bytes(&data, &aux)
    }

    /// Restore the newest checkpoint that fully verifies — the restart
    /// path after a failure. This is the one fallback walk
    /// ([`recovery::recover_latest`]) the engine's `RecoveryManager` runs
    /// too: a damaged version is rejected by name in the report and the
    /// walk falls back to the previous one; if none verifies, the error
    /// is [`CkptError::Unrecoverable`].
    pub fn recover_latest(&self) -> Result<Recovered, CkptError> {
        recovery::recover_latest(self.backend.as_ref(), &RecoveryConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FillPolicy, VarData};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("scrutiny_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn var(v: f64) -> Vec<VarRecord> {
        vec![VarRecord::new("x", VarData::F64(vec![v; 4]))]
    }

    #[test]
    fn save_load_latest() {
        let dir = tmpdir("sll");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        for i in 0..3 {
            store.save(&var(i as f64), &[VarPlan::Full]).unwrap();
        }
        let r = store.recover_latest().unwrap();
        assert_eq!(r.version, 2);
        let x = r
            .checkpoint
            .var("x")
            .unwrap()
            .materialize_f64(FillPolicy::Zero)
            .unwrap();
        assert_eq!(x, vec![2.0; 4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_prunes_old_versions() {
        let dir = tmpdir("ret");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for i in 0..5 {
            store.save(&var(i as f64), &[VarPlan::Full]).unwrap();
        }
        assert_eq!(store.versions().unwrap(), vec![3, 4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_numbering() {
        let dir = tmpdir("reopen");
        {
            let mut store = CheckpointStore::open(&dir, 5).unwrap();
            store.save(&var(1.0), &[VarPlan::Full]).unwrap();
        }
        let mut store = CheckpointStore::open(&dir, 5).unwrap();
        let (v, _) = store.save(&var(2.0), &[VarPlan::Full]).unwrap();
        assert_eq!(v, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_retention_is_an_error_not_a_panic() {
        let dir = tmpdir("keep0");
        match CheckpointStore::open(&dir, 0) {
            Err(CkptError::InvalidConfig(msg)) => assert!(msg.contains("at least one")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_orphaned_tmp_aux_and_shard_files() {
        let dir = tmpdir("sweep");
        // A valid checkpoint that must survive the sweep.
        {
            let mut store = CheckpointStore::open(&dir, 3).unwrap();
            store.save(&var(1.0), &[VarPlan::Full]).unwrap();
        }
        // Plant debris from interrupted writes.
        fs::write(dir.join("ckpt_000009.data.tmp"), b"half").unwrap();
        fs::write(dir.join("ckpt_000009.aux.tmp"), b"half").unwrap();
        fs::write(dir.join("ckpt_000007.aux"), b"orphan aux").unwrap();
        fs::write(dir.join("ckpt_000008.data.s000"), b"orphan shard").unwrap();
        fs::write(dir.join("ckpt_000008.data.s001"), b"orphan shard").unwrap();
        fs::write(dir.join("ckpt_000008.aux"), b"aux of unpublished").unwrap();
        fs::write(dir.join("notes.txt"), b"unrelated").unwrap();

        let store = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(store.versions().unwrap(), vec![0]);
        let left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        for gone in [
            "ckpt_000009.data.tmp",
            "ckpt_000009.aux.tmp",
            "ckpt_000007.aux",
            "ckpt_000008.data.s000",
            "ckpt_000008.data.s001",
            "ckpt_000008.aux",
        ] {
            assert!(
                !left.iter().any(|n| n == gone),
                "{gone} not swept: {left:?}"
            );
        }
        assert!(left.iter().any(|n| n == "ckpt_000000.data"));
        assert!(left.iter().any(|n| n == "ckpt_000000.aux"));
        assert!(
            left.iter().any(|n| n == "notes.txt"),
            "sweep must not touch foreign files"
        );
        // The surviving checkpoint still loads.
        assert!(store.recover_latest().is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_delta_writes_base_then_deltas_and_rebases() {
        use crate::names;
        let dir = tmpdir("delta_chain");
        let mut store = CheckpointStore::open(&dir, 16).unwrap();
        let policy = DeltaPolicy {
            page_bytes: 64,
            rebase_every: 2,
        };
        let mut vals = vec![0.5f64; 64];
        for i in 0..5u64 {
            vals[0] = i as f64; // localized change: first page only
            let vars = vec![VarRecord::new("x", VarData::F64(vals.clone()))];
            let (v, bd) = store.save_delta(&vars, &[VarPlan::Full], &policy).unwrap();
            assert_eq!(v, i);
            // Every version restores through the ordinary reader.
            let got = store
                .load(v)
                .unwrap()
                .var("x")
                .unwrap()
                .materialize_f64(FillPolicy::Zero)
                .unwrap();
            assert_eq!(got, vals, "version {v}");
            // rebase_every = 2 → epochs 1, 2 and 4 are deltas (0 and 3
            // are full); a one-page delta is far smaller than the payload.
            if matches!(i, 1 | 2 | 4) {
                assert!(
                    bd.total() < 64 * 8,
                    "epoch {i}: delta wrote {} bytes",
                    bd.total()
                );
            }
        }
        // rebase_every = 2 → versions 0 and 3 are full, the rest deltas.
        for (v, is_delta) in [(0, false), (1, true), (2, true), (3, false), (4, true)] {
            assert_eq!(
                dir.join(names::delta(v)).exists(),
                is_delta,
                "version {v} delta marker"
            );
            assert_eq!(
                dir.join(names::data(v)).exists(),
                !is_delta,
                "version {v} data marker"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_aware_prune_never_orphans_a_live_delta() {
        let dir = tmpdir("delta_ret");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        let policy = DeltaPolicy {
            page_bytes: 64,
            rebase_every: 3,
        };
        let mut vals = vec![1.0f64; 32];
        for i in 0..4u64 {
            vals[0] = i as f64;
            let vars = vec![VarRecord::new("x", VarData::F64(vals.clone()))];
            store.save_delta(&vars, &[VarPlan::Full], &policy).unwrap();
        }
        // Versions: 0 full, 1..=3 deltas. keep=2 would naively leave
        // {2, 3}, but both chain back to base 0 — everything must stay.
        assert_eq!(store.versions().unwrap(), vec![0, 1, 2, 3]);
        assert!(store.load(3).unwrap().var("x").is_ok());

        // Two more epochs: 4 is a rebase (full), 5 a delta on 4. Now the
        // newest two {4, 5} only need 4, so the old chain 0..=3 goes.
        for i in 4..6u64 {
            vals[0] = i as f64;
            let vars = vec![VarRecord::new("x", VarData::F64(vals.clone()))];
            store.save_delta(&vars, &[VarPlan::Full], &policy).unwrap();
        }
        assert_eq!(store.versions().unwrap(), vec![4, 5]);
        let got = store
            .load(5)
            .unwrap()
            .var("x")
            .unwrap()
            .materialize_f64(FillPolicy::Zero)
            .unwrap();
        assert_eq!(got, vals);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_delta_rejects_invalid_policy() {
        let dir = tmpdir("delta_cfg");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        let bad = DeltaPolicy {
            page_bytes: 0,
            rebase_every: 2,
        };
        assert!(matches!(
            store.save_delta(&var(1.0), &[VarPlan::Full], &bad),
            Err(CkptError::InvalidConfig(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_keeps_aux_of_delta_committed_versions() {
        let dir = tmpdir("delta_sweep");
        let policy = DeltaPolicy {
            page_bytes: 64,
            rebase_every: 4,
        };
        {
            let mut store = CheckpointStore::open(&dir, 4).unwrap();
            store
                .save_delta(&var(1.0), &[VarPlan::Full], &policy)
                .unwrap();
            store
                .save_delta(&var(2.0), &[VarPlan::Full], &policy)
                .unwrap();
        }
        // Reopen: version 1's only data marker is its .delta file — the
        // sweep must not treat its aux as an orphan.
        let store = CheckpointStore::open(&dir, 4).unwrap();
        assert_eq!(store.versions().unwrap(), vec![0, 1]);
        assert!(store.load(1).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_store_roundtrips_and_shrinks_on_disk() {
        use crate::compress::{AtRest, LoCodec};
        let dir = tmpdir("codec");
        let dir_raw = tmpdir("codec_raw");
        let codec = CodecConfig {
            at_rest: AtRest::Auto,
            lo: LoCodec::F32,
        };
        let mut store = CheckpointStore::open(&dir, 8)
            .unwrap()
            .with_codec(codec)
            .unwrap();
        let mut raw_store = CheckpointStore::open(&dir_raw, 8).unwrap();
        let policy = DeltaPolicy {
            page_bytes: 64,
            rebase_every: 3,
        };
        // Smooth data compresses well under the bit-plane codec.
        let mut vals: Vec<f64> = (0..512).map(|i| 1.0 + i as f64 * 1e-6).collect();
        for i in 0..4u64 {
            vals[0] = i as f64;
            let vars = vec![VarRecord::new("x", VarData::F64(vals.clone()))];
            let (v, bd) = store.save_delta(&vars, &[VarPlan::Full], &policy).unwrap();
            let (_, raw_bd) = raw_store
                .save_delta(&vars, &[VarPlan::Full], &policy)
                .unwrap();
            // Breakdown totals equal actually-stored bytes, which shrink.
            assert!(
                bd.total() < raw_bd.total(),
                "epoch {i}: {} !< {}",
                bd.total(),
                raw_bd.total()
            );
            // Every version — compressed base or compressed delta —
            // restores bit-identically through the ordinary reader.
            let got = store
                .load(v)
                .unwrap()
                .var("x")
                .unwrap()
                .materialize_f64(FillPolicy::Zero)
                .unwrap();
            assert_eq!(got, vals, "version {v}");
        }
        // The base data file on disk is an SCRUTCZB container.
        let base = fs::read(dir.join(crate::names::data(0))).unwrap();
        assert!(crate::compress::is_container(&base));
        // Aux files are never compressed.
        let aux = fs::read(dir.join(crate::names::aux(0))).unwrap();
        assert!(!crate::compress::is_container(&aux));
        // Chain-aware prune still works across compressed deltas (it
        // must read parent pointers through the container).
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir_raw).unwrap();
    }

    #[test]
    fn empty_store_latest_is_none() {
        let dir = tmpdir("empty");
        let store = CheckpointStore::open(&dir, 1).unwrap();
        assert_eq!(store.latest().unwrap(), None);
        assert!(matches!(
            store.recover_latest(),
            Err(CkptError::Unrecoverable(report)) if report.scanned == 0
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
