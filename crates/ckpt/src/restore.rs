//! The checkpoint reader: CRC-verifying, parallel at `threads > 1`.
//!
//! The write path is scale-out (the async engine serializes shards on
//! [`run_jobs`]); this module is its read-side mirror, because the
//! paper's whole value proposition is cheap *restart* (§IV.C): a
//! scrutinized checkpoint only matters if getting it back into memory is
//! fast and trustworthy. [`read_data_image_parallel`] is the **one**
//! routine that reconstructs the data-file image of a checkpoint in any
//! layout — monolithic, sharded, or delta chain — for
//! [`crate::CheckpointStore::load`], [`crate::backend::read_version`] and
//! the recovery walk ([`crate::recovery`]) alike; `threads: 1` is the
//! serial reader, not a second one:
//!
//! * every fetched object passes one adapter that decodes a `SCRUTCZB`
//!   container (under a `ckpt.decompress` span) — the only decompress
//!   point on the read path;
//! * data shards are fetched **and checked against their manifest entry**
//!   one job per shard on the same bounded runner the engine's shard
//!   serialization uses, then concatenated in manifest order; a shard
//!   that arrived in a container is checked by the CRC the container
//!   verified over its decoded bytes, so the pipeline hashes no shard
//!   twice;
//! * delta-chain links are envelope-verified (magic + CRC trailer)
//!   concurrently with each other and with the shard jobs of a sharded
//!   base (a monolithic base's bytes necessarily arrive during
//!   discovery — probing its existence *is* fetching it); the patch
//!   replay itself stays oldest-first (it is inherently sequential),
//!   re-using the already verified links so each link is hashed once;
//! * the assembled image is **bit-identical** at every thread count —
//!   property-tested in `tests/recovery_faultinj.rs` — so the auxiliary
//!   file, every [`crate::FillPolicy`], and
//!   [`crate::reader::Checkpoint::from_bytes`] apply unchanged.
//!
//! One double hash remains, after this module: every caller parses the
//! image with the public [`crate::reader::Checkpoint::from_bytes`],
//! whose envelope check hashes the whole image again. For a sharded
//! image that is a second pass over bytes whose shards were already
//! verified here; a monolithic image that arrived in a container was
//! likewise verified by the container's CRC. The one recovery walk now
//! lives in this crate, so a crate-private parse entry for an image
//! verified here could skip that pass; it waits on a change that
//! measures the saving, since it adds a second way in to the parser.
//!
//! Chain *discovery* (walking parent pointers) is serial by nature: a
//! delta's parent version lives inside the delta file. Discovery reads
//! are cheap (one object fetch per link); the expensive work — hashing
//! and shard transfer — is what parallelizes.
//!
//! Integrity failures surface as typed [`CkptError`]s
//! ([`CkptError::ChecksumMismatch`], [`CkptError::Corrupt`], not-found
//! I/O), the same at every thread count; the recovery walk maps them to
//! fall-back decisions.

use crate::delta::{apply_delta_verified, check_delta, walk_chain, ChainBase};
use crate::format::CkptError;
use crate::names;
use scrutiny_obs::{span, Recorder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tuning knobs for the parallel restore pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreOptions {
    /// Worker threads fetching and verifying objects. `0` (the default)
    /// picks `available_parallelism` (capped at 8); `1` runs fully
    /// serial — what the blocking loaders use, and right on single-core
    /// hosts where thread spawn overhead outweighs the overlap.
    pub threads: usize,
}

/// What one parallel restore actually did (for reports and benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Worker threads the pipeline ran with (1 = serial).
    pub threads: usize,
    /// Shards of the base image (0 when the base is monolithic).
    pub base_shards: usize,
    /// Delta-chain links walked and replayed on top of the base.
    pub delta_links: usize,
    /// Bytes of the reconstructed data-file image.
    pub image_bytes: usize,
}

fn resolve_threads(requested: usize, jobs: usize) -> usize {
    let cap = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        requested
    };
    cap.min(jobs).max(1)
}

/// Reconstruct the data-file image of checkpoint `version` through
/// `fetch`, using up to [`RestoreOptions::threads`] workers to fetch and
/// CRC-verify shards and delta links concurrently; the stats say what the
/// pipeline did. `fetch` must resolve an object name (see
/// [`crate::names`]) to its bytes and be callable from several threads
/// at once — a directory read or a backend `get` both qualify. This is
/// [`read_data_image_parallel_obs`] with a disabled recorder.
pub fn read_data_image_parallel<F>(
    version: u64,
    fetch: &F,
    opts: &RestoreOptions,
) -> Result<(Vec<u8>, RestoreStats), CkptError>
where
    F: Fn(&str) -> Result<Vec<u8>, CkptError> + Sync,
{
    read_data_image_parallel_obs(version, fetch, opts, &Recorder::disabled())
}

/// The reader, reporting into a [`Recorder`]: the whole restore runs
/// under a `ckpt.restore` span (emitted even when the restore fails, so
/// rejected recovery candidates leave a trace), each
/// `SCRUTCZB`-compressed object decodes under a `ckpt.decompress` span,
/// and a `ckpt.restore.image` point carries what the pipeline did.
pub fn read_data_image_parallel_obs<F>(
    version: u64,
    fetch: &F,
    opts: &RestoreOptions,
    rec: &Recorder,
) -> Result<(Vec<u8>, RestoreStats), CkptError>
where
    F: Fn(&str) -> Result<Vec<u8>, CkptError> + Sync,
{
    let _restore = span!(rec, "ckpt.restore", version = version);
    // The read path's one decompress point: every object — base, manifest,
    // shard, delta — reaches the phases below raw, with the CRC-32 of its
    // raw bytes when a container verified one.
    let fetch = |name: &str| -> Result<(Vec<u8>, Option<u32>), CkptError> {
        let bytes = fetch(name)?;
        if !crate::compress::is_container(&bytes) {
            return Ok((bytes, None));
        }
        let _d = span!(rec, "ckpt.decompress", stored_bytes = bytes.len() as u64);
        let (raw, crc) = crate::compress::decode(&bytes)?;
        Ok((raw, Some(crc)))
    };

    // --- Phase 1: discovery. Serial by nature: the parent version is
    // inside each delta file.
    let (base, deltas) = walk_chain(version, |name| Ok(fetch(name)?.0))?;

    // --- Phase 2: fan out the expensive work — shard fetches and CRC
    // passes — across the pool, first failure wins. Job `i` below
    // `base_shards` fetches shard `i`; the rest verify one delta link each.
    let base_shards = match &base {
        ChainBase::Sharded { manifest, .. } => manifest.shard_count(),
        ChainBase::Monolithic(_) => 0,
    };
    let jobs = base_shards + deltas.len();
    let threads = resolve_threads(opts.threads, jobs.max(1));
    let shards = run_jobs(jobs, threads, |i| match &base {
        ChainBase::Sharded { version, manifest } if i < base_shards => {
            let (bytes, crc) = fetch(&names::shard(*version, i))?;
            manifest.check_shard(i, &bytes, crc)?;
            Ok(Some(bytes))
        }
        _ => check_delta(&deltas[i - base_shards]).map(|()| None),
    })?;

    // --- Phase 3: assemble: verified shards concatenated in manifest
    // order, then deltas replayed oldest-first.
    let mut image = match base {
        ChainBase::Monolithic(data) => data,
        // Every shard matched its manifest length, so the concatenation is
        // the bytes in hand, not a number a file merely claims.
        ChainBase::Sharded { .. } => shards.into_iter().flatten().collect::<Vec<_>>().concat(),
    };
    for delta in deltas.iter().rev() {
        image = apply_delta_verified(&image, delta)?;
    }
    let stats = RestoreStats {
        threads,
        base_shards,
        delta_links: deltas.len(),
        image_bytes: image.len(),
    };
    rec.event(
        "ckpt.restore.image",
        &[
            ("version", version.into()),
            ("threads", stats.threads.into()),
            ("base_shards", stats.base_shards.into()),
            ("delta_links", stats.delta_links.into()),
            ("image_bytes", stats.image_bytes.into()),
        ],
    );
    Ok((image, stats))
}

/// Run jobs `0..n` on up to `threads` threads — the caller and
/// `threads - 1` helpers — and return their results in job order. Each
/// thread claims the next job from a shared counter, so a slow job does
/// not leave its siblings idle; a failed job stops the claiming and its
/// error is returned, and a panicking job panics the caller with its own
/// payload. At one thread the jobs run in order on the calling thread.
/// The restore pipeline and the checkpoint engine's shard serialization
/// share this one pool.
pub fn run_jobs<T, E, F>(n: usize, threads: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let first_err: Mutex<Option<E>> = Mutex::new(None);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n || first_err.lock().unwrap().is_some() {
                return done;
            }
            match job(i) {
                Ok(t) => done.push((i, t)),
                Err(e) => {
                    first_err.lock().unwrap().get_or_insert(e);
                    return done;
                }
            }
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(n)).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        done
    });
    if let Some(e) = first_err.into_inner().unwrap() {
        return Err(e);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(done.into_iter().map(|(_, t)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::diff_images;
    use crate::delta::tests::mem_fetch;
    use crate::shard::{plan_shards, seal_shards, serialize_all};
    use crate::writer::serialize_data;
    use crate::{Bitmap, Regions, VarData, VarPlan, VarRecord};
    use std::collections::HashMap;

    fn sample(n: usize, scale: f64) -> (Vec<VarRecord>, Vec<VarPlan>) {
        let vars = vec![
            VarRecord::new(
                "u",
                VarData::F64((0..n).map(|i| (i as f64 * scale).sin()).collect()),
            ),
            VarRecord::new("it", VarData::I64(vec![n as i64, 7])),
        ];
        let crit = Bitmap::from_fn(n, |i| i % 4 != 1);
        let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit)), VarPlan::Full];
        (vars, plans)
    }

    /// Monolithic v0, sharded v1, delta chain v2..=v4 on top of v1.
    fn build_layouts() -> HashMap<String, Vec<u8>> {
        let mut objects = HashMap::new();

        let (vars, plans) = sample(400, 0.25);
        let (mono, _) = serialize_data(&vars, &plans).unwrap();
        objects.insert(names::data(0), mono);

        let (vars, plans) = sample(600, 1.5);
        let plan = plan_shards(&vars, &plans, 4).unwrap();
        let (sealed, manifest) = seal_shards(serialize_all(&vars, &plans, &plan).0);
        for (i, s) in sealed.iter().enumerate() {
            objects.insert(names::shard(1, i), s.clone());
        }
        objects.insert(names::manifest(1), manifest.to_bytes());

        let serial = RestoreOptions { threads: 1 };
        let (mut img, _) = read_data_image_parallel(1, &mem_fetch(&objects), &serial).unwrap();
        for v in 2u64..=4 {
            let mut next = img.clone();
            let at = (v as usize * 131) % next.len();
            next[at] ^= 0x5A;
            let (d, _) = diff_images(&img, &next, v - 1, 128).unwrap();
            objects.insert(names::delta(v), d);
            img = next;
        }
        objects
    }

    #[test]
    fn parallel_matches_serial_on_all_layouts_and_thread_counts() {
        let objects = build_layouts();
        for version in 0u64..=4 {
            let serial = RestoreOptions { threads: 1 };
            let (want, _) =
                read_data_image_parallel(version, &mem_fetch(&objects), &serial).unwrap();
            for threads in [0usize, 1, 2, 5] {
                let (got, stats) = read_data_image_parallel(
                    version,
                    &mem_fetch(&objects),
                    &RestoreOptions { threads },
                )
                .unwrap();
                assert_eq!(got, want, "version {version}, {threads} threads");
                assert_eq!(stats.image_bytes, want.len());
                match version {
                    0 => assert_eq!((stats.base_shards, stats.delta_links), (0, 0)),
                    1 => assert_eq!(stats.delta_links, 0),
                    v => {
                        assert_eq!(stats.delta_links as u64, v - 1);
                        assert!(stats.base_shards >= 2, "chain anchors on the sharded base");
                    }
                }
            }
        }
    }

    #[test]
    fn run_jobs_keeps_job_order_the_error_and_the_panic_payload() {
        for threads in [1usize, 3] {
            let squares = run_jobs(10, threads, |i| Ok::<_, String>(i * i)).unwrap();
            assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
            let failed = run_jobs(10, threads, |i| match i {
                7 => Err(format!("job {i}")),
                _ => Ok(i),
            });
            assert_eq!(failed, Err("job 7".to_string()));
            let panic = std::panic::catch_unwind(|| {
                run_jobs(10, threads, |i| {
                    assert_ne!(i, 4, "job four");
                    Ok::<_, String>(i)
                })
            })
            .unwrap_err();
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("job four"), "{threads} threads: {msg}");
        }
    }

    #[test]
    fn damaged_shard_is_pinned_by_the_parallel_path() {
        let mut objects = build_layouts();
        objects.get_mut(&names::shard(1, 1)).unwrap()[3] ^= 0xFF;
        for threads in [1usize, 4] {
            let err =
                read_data_image_parallel(1, &mem_fetch(&objects), &RestoreOptions { threads })
                    .unwrap_err();
            assert!(
                matches!(err, CkptError::ChecksumMismatch { .. }),
                "{threads} threads: {err}"
            );
        }
    }

    #[test]
    fn damaged_delta_link_fails_the_chain() {
        let mut objects = build_layouts();
        let d = objects.get_mut(&names::delta(3)).unwrap();
        let mid = d.len() / 2;
        d[mid] ^= 0x01;
        // Version 2 (below the damage) still restores…
        assert!(
            read_data_image_parallel(2, &mem_fetch(&objects), &RestoreOptions::default()).is_ok()
        );
        // …versions 3 and 4 (through the damaged link) do not.
        for v in [3u64, 4] {
            assert!(
                read_data_image_parallel(v, &mem_fetch(&objects), &RestoreOptions::default())
                    .is_err(),
                "version {v}"
            );
        }
    }

    #[test]
    fn truncated_shard_reports_corrupt_not_panic() {
        let mut objects = build_layouts();
        objects.get_mut(&names::shard(1, 0)).unwrap().truncate(9);
        let err = read_data_image_parallel(1, &mem_fetch(&objects), &RestoreOptions { threads: 3 })
            .unwrap_err();
        assert!(matches!(
            err,
            CkptError::Corrupt(_) | CkptError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn missing_base_surfaces_not_found() {
        let mut objects = build_layouts();
        objects.remove(&names::manifest(1));
        let err = read_data_image_parallel(4, &mem_fetch(&objects), &RestoreOptions::default())
            .unwrap_err();
        assert!(crate::delta::is_not_found(&err), "{err}");
    }

    #[test]
    fn cyclic_parent_rejected() {
        let a: Vec<u8> = (0..100u8).collect();
        let (d, _) = diff_images(&a, &a, 5, 64).unwrap();
        let mut objects = HashMap::new();
        objects.insert(names::delta(5), d);
        match read_data_image_parallel(5, &mem_fetch(&objects), &RestoreOptions::default()) {
            Err(CkptError::Corrupt(m)) => assert!(m.contains("not older"), "{m}"),
            other => panic!("expected corrupt-cycle error, got {other:?}"),
        };
    }
}
