//! The object-store seam: where checkpoint bytes go, and the
//! version-level operations every consumer shares.
//!
//! A backend is a flat, named object store — deliberately minimal so new
//! tiers (compressed, remote, batched) only implement five methods; the
//! checkpoint layout on top of it is the grammar of [`crate::names`].
//! Everything that writes goes through [`crate::delta::publish_epoch`];
//! "which versions exist", "give me version v" and "retire old versions"
//! are [`list_versions`], [`read_version`] and [`prune_chain_aware`] —
//! for the blocking [`crate::CheckpointStore`], the async engine and the
//! daemon alike, so a directory written by one is read and pruned
//! identically by the others.

use crate::format::CkptError;
use crate::names;
use crate::writer::write_file_atomic;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

/// A named-object store checkpoints are written into. Object names
/// follow the grammar of [`crate::names`].
///
/// Implementations must be safe to call from multiple worker threads at
/// once. `put` must be atomic per object: a reader never observes a
/// half-written object under its final name.
pub trait StorageBackend: Send + Sync {
    /// Durably store `bytes` under `name`, replacing any previous object.
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError>;
    /// Fetch a whole object. A missing object is
    /// [`CkptError::Io`] with [`std::io::ErrorKind::NotFound`] (the
    /// signal layout probing relies on); other errors mean the object
    /// may exist but could not be read.
    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError>;
    /// All object names, in no particular order.
    fn list(&self) -> Result<Vec<String>, CkptError>;
    /// Remove an object (idempotent: missing objects are not an error).
    fn delete(&self, name: &str) -> Result<(), CkptError>;
    /// Human-readable description for reports and error messages.
    fn label(&self) -> String;
}

/// Committed checkpoint versions in a backend, ascending.
///
/// Tenant-scoped by construction: `committed_version` parses the
/// default-tenant grammar only, so over a raw pool this sees the default
/// tenant's chain, and over a namespaced view of the pool it sees exactly
/// that tenant's chain (same for [`prune_chain_aware`], `committed_kinds`,
/// and recovery scans — namespacing the backend scopes every consumer at
/// once).
pub fn list_versions(backend: &dyn StorageBackend) -> Result<Vec<u64>, CkptError> {
    let committed = crate::delta::committed_kinds(backend.list()?);
    Ok(committed.into_iter().map(|(v, _)| v).collect())
}

/// Read checkpoint `version` back out of a backend as `(data, aux)` byte
/// images for [`crate::Checkpoint::from_bytes`] — reassembling and
/// CRC-verifying the sharded layout, or reconstructing a delta chain
/// (see [`crate::delta`]), when no monolithic object exists. Layout
/// probing only follows a definite "no such object"; a permission or I/O
/// failure surfaces as itself.
pub fn read_version(
    backend: &dyn StorageBackend,
    version: u64,
) -> Result<(Vec<u8>, Vec<u8>), CkptError> {
    let aux = backend.get(&names::aux(version))?;
    let data = crate::delta::read_data_image(version, |name| backend.get(name))?;
    Ok((data, aux))
}

/// Chain-aware keep-last-`keep` retention over a backend: delete every
/// object of each committed version that is neither among the newest
/// `keep` nor an ancestor a retained delta chain still restores through
/// (computed by [`crate::delta::live_versions`]).
///
/// `parents` is what the caller knows of the chains: delta version →
/// the version it patches. A writer records each delta it publishes
/// ([`crate::delta::Published::parent`]), so its steady-state retention
/// reads no object; a live delta the map does not cover — inherited from
/// before the writer opened — is fetched once for its header and
/// remembered. Entries of versions no longer live are dropped.
///
/// One listing drives the whole prune. Commit markers go first, newest
/// version first: a doomed chain's child deltas stop looking committed
/// before their base disappears, so a crash (or a failed delete, which
/// stops the sweep) leaves at worst an intact, still-loadable prefix of
/// the chain plus orphans the next `CheckpointStore::open` sweeps —
/// never a committed-looking version that is half gone or whose
/// ancestors are gone. Objects of *uncommitted* versions are left alone:
/// they may belong to a writer that has not put its marker yet.
pub fn prune_chain_aware(
    backend: &dyn StorageBackend,
    keep: usize,
    parents: &mut BTreeMap<u64, u64>,
) -> Result<(), CkptError> {
    let listing = backend.list()?;
    let committed = crate::delta::committed_kinds(&listing);
    if committed.len() <= keep {
        return Ok(());
    }
    let live = crate::delta::live_versions(&committed, keep, |v| {
        if let Some(&parent) = parents.get(&v) {
            return Ok(parent);
        }
        let parent = crate::delta::parent_version(&backend.get(&names::delta(v))?)?;
        parents.insert(v, parent);
        Ok(parent)
    })?;
    parents.retain(|v, _| live.contains(v));
    let doomed =
        |v: &u64| !live.contains(v) && committed.binary_search_by_key(v, |&(c, _)| c).is_ok();
    // Sort key: markers before the rest, then newest version first.
    let mut objects: Vec<(bool, Reverse<u64>, &str)> = listing
        .iter()
        .filter_map(|name| {
            let version = names::classify(name).version().filter(doomed)?;
            let marker = names::committed_version(name).is_some();
            Some((!marker, Reverse(version), name.as_str()))
        })
        .collect();
    objects.sort_unstable();
    for (_, _, name) in objects {
        backend.delete(name)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// DirBackend — the file layout, durable and reader-compatible.
// ---------------------------------------------------------------------------

/// Stores objects as files in one directory with write-fsync-rename
/// publication. This is what a [`crate::CheckpointStore`] holds, so a
/// directory an engine published into through a `DirBackend` opens as a
/// store with no conversion (drain the engine first — see
/// [`crate::CheckpointStore::open`]).
pub struct DirBackend {
    dir: PathBuf,
}

impl DirBackend {
    /// Open (creating if needed) a directory-backed object store.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DirBackend { dir })
    }
}

impl StorageBackend for DirBackend {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let path = self.dir.join(name);
        // Tenant-namespaced names (`t1/ckpt_v...`) map to subdirectories;
        // create them on first write so a fresh pool needs no layout step.
        if name.contains('/') {
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)?;
            }
        }
        write_file_atomic(&path, bytes)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        Ok(fs::read(self.dir.join(name))?)
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        // Recursive: tenant objects list under their pool-level names
        // (`t1/ckpt_v...`, `/`-joined regardless of platform separator).
        fn walk(dir: &std::path::Path, prefix: &str, out: &mut Vec<String>) -> std::io::Result<()> {
            for entry in fs::read_dir(dir)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let rel = if prefix.is_empty() {
                    name
                } else {
                    format!("{prefix}/{name}")
                };
                if entry.file_type()?.is_dir() {
                    walk(&entry.path(), &rel, out)?;
                } else {
                    out.push(rel);
                }
            }
            Ok(())
        }
        let mut names = Vec::new();
        walk(&self.dir, "", &mut names)?;
        Ok(names)
    }

    fn delete(&self, name: &str) -> Result<(), CkptError> {
        match fs::remove_file(self.dir.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn label(&self) -> String {
        format!("dir:{}", self.dir.display())
    }
}

// ---------------------------------------------------------------------------
// MemBackend — in-process store for tests, burn-in and benchmarks.
// ---------------------------------------------------------------------------

/// Keeps objects in a process-local map. No durability — meant for tests,
/// engine burn-in and benchmarks.
#[derive(Default)]
pub struct MemBackend {
    objects: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemBackend {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total payload bytes currently held.
    pub fn total_bytes(&self) -> usize {
        self.objects.lock().unwrap().values().map(Vec::len).sum()
    }
}

impl StorageBackend for MemBackend {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        self.objects
            .lock()
            .unwrap()
            .insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.objects
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| {
                CkptError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no object named {name:?}"),
                ))
            })
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        Ok(self.objects.lock().unwrap().keys().cloned().collect())
    }

    fn delete(&self, name: &str) -> Result<(), CkptError> {
        self.objects.lock().unwrap().remove(name);
        Ok(())
    }

    fn label(&self) -> String {
        "mem".into()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::names::CkptName;

    /// Every `put` (`Some(bytes)`) and `delete` (`None`) in call order —
    /// the write sequence a crash can cut short.
    pub(crate) type WriteLog = std::sync::Arc<Mutex<Vec<(String, Option<Vec<u8>>)>>>;

    /// Forwards to an inner [`MemBackend`], recording a [`WriteLog`],
    /// every `get` with whether it found its object, and counting
    /// listings.
    #[derive(Default)]
    pub(crate) struct LogBackend {
        pub(crate) inner: std::sync::Arc<MemBackend>,
        pub(crate) log: WriteLog,
        pub(crate) gets: std::sync::Arc<Mutex<Vec<(String, bool)>>>,
        lists: std::sync::atomic::AtomicUsize,
    }

    impl LogBackend {
        /// A fresh log over the objects another `LogBackend` holds — what
        /// a reopened writer sees.
        pub(crate) fn over(inner: std::sync::Arc<MemBackend>) -> Self {
            LogBackend {
                inner,
                ..Default::default()
            }
        }
    }

    impl StorageBackend for LogBackend {
        fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
            let entry = (name.to_string(), Some(bytes.to_vec()));
            self.log.lock().unwrap().push(entry);
            self.inner.put(name, bytes)
        }
        fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
            let got = self.inner.get(name);
            let entry = (name.to_string(), got.is_ok());
            self.gets.lock().unwrap().push(entry);
            got
        }
        fn list(&self) -> Result<Vec<String>, CkptError> {
            self.lists
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.list()
        }
        fn delete(&self, name: &str) -> Result<(), CkptError> {
            self.log.lock().unwrap().push((name.to_string(), None));
            self.inner.delete(name)
        }
        fn label(&self) -> String {
            "log".into()
        }
    }

    #[test]
    fn mem_backend_roundtrip_and_listing() {
        let b = MemBackend::new();
        b.put("a", b"one").unwrap();
        b.put("b", b"two").unwrap();
        assert_eq!(b.get("a").unwrap(), b"one");
        assert!(b.get("missing").is_err());
        let mut names = b.list().unwrap();
        names.sort();
        assert_eq!(names, ["a", "b"]);
        b.delete("a").unwrap();
        b.delete("a").unwrap(); // idempotent
        assert_eq!(b.list().unwrap(), ["b"]);
    }

    #[test]
    fn dir_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("scrutiny_dirbk_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let b = DirBackend::open(&dir).unwrap();
        b.put("x.data", b"payload").unwrap();
        assert_eq!(b.get("x.data").unwrap(), b"payload");
        assert_eq!(b.list().unwrap(), ["x.data"]);
        b.delete("x.data").unwrap();
        b.delete("x.data").unwrap(); // idempotent on missing
        assert!(b.list().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_backend_lists_tenant_subdirectories() {
        let dir = std::env::temp_dir().join(format!("scrutiny_dirbk_ns_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let b = DirBackend::open(&dir).unwrap();
        b.put("ckpt_000001.data", b"root").unwrap();
        b.put("t1/ckpt_000001.data", b"tenant").unwrap();
        assert_eq!(b.get("t1/ckpt_000001.data").unwrap(), b"tenant");
        let mut all = b.list().unwrap();
        all.sort();
        assert_eq!(all, ["ckpt_000001.data", "t1/ckpt_000001.data"]);
        b.delete("t1/ckpt_000001.data").unwrap();
        assert_eq!(b.list().unwrap(), ["ckpt_000001.data"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_version_propagates_non_notfound_errors() {
        /// Aux reads succeed; the monolithic data read fails with a
        /// *permission* error, which must surface as-is instead of being
        /// masked by a sharded-layout probe.
        struct DeniedData;
        impl StorageBackend for DeniedData {
            fn put(&self, _: &str, _: &[u8]) -> Result<(), CkptError> {
                Ok(())
            }
            fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
                match names::classify(name) {
                    CkptName::Aux(_) => Ok(b"aux".to_vec()),
                    CkptName::Data(_) => Err(CkptError::Io(std::io::Error::new(
                        std::io::ErrorKind::PermissionDenied,
                        "denied",
                    ))),
                    _ => panic!("sharded probe must not run: asked for {name:?}"),
                }
            }
            fn list(&self) -> Result<Vec<String>, CkptError> {
                Ok(Vec::new())
            }
            fn delete(&self, _: &str) -> Result<(), CkptError> {
                Ok(())
            }
            fn label(&self) -> String {
                "denied".into()
            }
        }
        match read_version(&DeniedData, 3) {
            Err(CkptError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::PermissionDenied)
            }
            other => panic!("expected the permission error, got {other:?}"),
        }
    }

    #[test]
    fn prune_lists_once_and_deletes_markers_first_newest_first() {
        // 0 full, 1 and 2 deltas on it, 3 full (sharded), 4 delta on 3:
        // keep = 2 retires the old chain 0..=2. Version 5 has no marker
        // yet — an in-flight writer's objects, not the pruner's.
        let b = LogBackend::default();
        let img: Vec<u8> = (0..200u8).collect();
        let delta_on = |parent| crate::delta::diff_images(&img, &img, parent, 64).unwrap().0;
        for (name, bytes) in [
            (names::data(0), img.clone()),
            (names::delta(1), delta_on(0)),
            (names::delta(2), delta_on(1)),
            (names::shard(3, 0), img.clone()),
            (names::manifest(3), b"m".to_vec()),
            (names::delta(4), delta_on(3)),
            (names::shard(5, 0), img.clone()),
        ] {
            b.inner.put(&name, &bytes).unwrap();
        }
        for v in 0..6 {
            b.inner.put(&names::aux(v), b"a").unwrap();
        }
        // The writer knew delta 4's parent; nothing else live is a delta,
        // so the prune reads no object — and forgets nothing live.
        let mut parents = BTreeMap::from([(2, 1), (4, 3)]);
        prune_chain_aware(&b, 2, &mut parents).unwrap();
        assert_eq!(b.lists.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(b.gets.lock().unwrap().is_empty());
        assert_eq!(parents, BTreeMap::from([(4, 3)]));
        let log = b.log.lock().unwrap();
        assert!(log.iter().all(|(_, put)| put.is_none()), "deletes only");
        let deleted: Vec<&str> = log.iter().map(|(name, _)| name.as_str()).collect();
        let (d2, d1, d0) = (names::delta(2), names::delta(1), names::data(0));
        let (a2, a1, a0) = (names::aux(2), names::aux(1), names::aux(0));
        assert_eq!(deleted, [&d2, &d1, &d0, &a2, &a1, &a0]);
        assert_eq!(list_versions(&b).unwrap(), [3, 4]);
        assert!(b.get(&names::aux(5)).is_ok(), "uncommitted objects stay");
        assert!(b.get(&names::shard(5, 0)).is_ok());
    }
}
