//! Base+delta checkpoints: the `SCRUTDLT` on-disk format.
//!
//! The paper removes *semantic* redundancy (AD proves elements
//! uncritical); dirty-page incremental checkpointing (Vasavada et al.,
//! cited in the paper's related work) removes *temporal* redundancy. The
//! two compose: this module diffs the **serialized data file** of the
//! AD-pruned checkpoint — the bytes that remain *after* semantic pruning —
//! at page granularity, so a delta epoch stores only the pages of the
//! critical regions that actually changed since the parent epoch.
//!
//! Layout of one delta file (little-endian, CRC-32 trailer like every
//! other `scrutiny-ckpt` file):
//!
//! ```text
//! "SCRUTDLT" | format u32 | parent u64 | page_bytes u32 | full_len u64
//!            | npages u64
//! per page:  page_id u64 | page payload
//!            (payload length = min(page_bytes, full_len − id·page_bytes))
//! crc32 u32
//! ```
//!
//! `parent` names the checkpoint this delta patches; applying the delta to
//! the parent's reconstructed data-file image yields this epoch's image
//! **bit-identically** — so [`crate::reader::Checkpoint::from_bytes`], the
//! auxiliary file, every [`crate::FillPolicy`], and the CRC envelope all
//! work unchanged on a reconstructed delta checkpoint.
//!
//! Dirty pages are detected by *exact byte comparison* against the parent
//! image, not by hashing: a hash collision here would silently corrupt
//! every later epoch in the chain.
//!
//! This module also holds **the** publication routine,
//! [`publish_epoch`]: every writer in the workspace — the blocking
//! [`crate::CheckpointStore`] (`save`, `save_delta`) and the async
//! engine in each of its layouts — hands it the epoch's serialized body
//! and a `put`, and it alone decides object names, at-rest compression,
//! write order (commit marker last) and the byte accounting.

use crate::compress::AtRest;
use crate::format::{check_envelope, crc32, CkptError, Cursor, StorageBreakdown};
use crate::names;
use crate::shard::{seal_shards, ShardManifest};
use crate::writer::{full_breakdown, put_u32, put_u64, rebalance_breakdown};
use scrutiny_obs::{span, Recorder};

pub(crate) const DELTA_MAGIC: &[u8; 8] = b"SCRUTDLT";
const DELTA_VERSION: u32 = 1;
/// Fixed byte length of the delta header up to and including `npages`.
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8 + 8;
/// Chains longer than this are rejected as corrupt (a healthy writer
/// rebases long before; a cycle would otherwise loop forever).
pub(crate) const MAX_CHAIN_LEN: usize = 100_000;
/// Default diff granularity: one 4 KiB page, the unit `mprotect`-style
/// dirty tracking (Vasavada et al.) works at.
pub const PAGE_BYTES: usize = 4096;

/// How a delta-checkpoint chain is grown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaPolicy {
    /// Diff granularity in bytes (must be ≥ 1).
    pub page_bytes: usize,
    /// After this many consecutive delta epochs, the next epoch rebases to
    /// a fresh full checkpoint (must be ≥ 1). Bounds both restore latency
    /// (chain length) and retention (a chain pins its base on disk).
    pub rebase_every: usize,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        DeltaPolicy {
            page_bytes: PAGE_BYTES,
            rebase_every: 8,
        }
    }
}

impl DeltaPolicy {
    /// Reject unusable policies (zero page size or zero chain length).
    pub fn validate(&self) -> Result<(), CkptError> {
        validate_page_bytes(self.page_bytes)?;
        if self.rebase_every == 0 {
            return Err(CkptError::InvalidConfig(
                "a delta chain must allow at least one delta between rebases".into(),
            ));
        }
        Ok(())
    }
}

/// A usable page size: non-zero, and within the header's u32 field — a
/// silent `as u32` truncation would write deltas that cannot be applied.
fn validate_page_bytes(page_bytes: usize) -> Result<(), CkptError> {
    if page_bytes == 0 {
        return Err(CkptError::InvalidConfig(
            "delta page size must be positive".into(),
        ));
    }
    if page_bytes > u32::MAX as usize {
        return Err(CkptError::InvalidConfig(format!(
            "delta page size {page_bytes} exceeds the format's u32 limit"
        )));
    }
    Ok(())
}

/// Byte accounting of one serialized delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Pages whose bytes changed (or are new) since the parent image.
    pub dirty_pages: usize,
    /// Pages the new image spans in total.
    pub total_pages: usize,
    /// Dirty-page payload bytes stored in the delta file.
    pub payload_bytes: usize,
}

/// Word-scanning page comparison: an early-exit check on the first
/// 8-byte word (a dirty page almost always differs immediately — the
/// diff loop runs once per page, so the prefix check short-circuits the
/// common dirty case), then 16-byte word compares, then a byte tail.
/// Must agree with a byte-at-a-time comparison on every input — the
/// module's tests pin that at every length and position.
#[inline]
pub fn pages_equal(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a.len() >= 8
        && u64::from_ne_bytes(a[..8].try_into().unwrap())
            != u64::from_ne_bytes(b[..8].try_into().unwrap())
    {
        return false;
    }
    let mut wa = a.chunks_exact(16);
    let mut wb = b.chunks_exact(16);
    for (ca, cb) in wa.by_ref().zip(wb.by_ref()) {
        if u128::from_ne_bytes(ca.try_into().unwrap())
            != u128::from_ne_bytes(cb.try_into().unwrap())
        {
            return false;
        }
    }
    wa.remainder()
        .iter()
        .zip(wb.remainder())
        .all(|(x, y)| x == y)
}

/// Copy a page with unaligned 16-byte word loads/stores plus a byte
/// tail. `dst` and `src` must be the same length.
#[inline]
pub fn copy_page(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut ws = src.chunks_exact(16);
    let mut wd = dst.chunks_exact_mut(16);
    for (d, s) in wd.by_ref().zip(ws.by_ref()) {
        let w = u128::from_ne_bytes(s.try_into().unwrap());
        d.copy_from_slice(&w.to_ne_bytes());
    }
    for (d, s) in wd.into_remainder().iter_mut().zip(ws.remainder()) {
        *d = *s;
    }
}

/// Diff `new` against `parent` at `page_bytes` granularity and serialize
/// the result as a `SCRUTDLT` file that patches checkpoint
/// `parent_version`. A page is dirty when its bytes differ from the same
/// byte range of the parent image, or when it extends past the parent's
/// end (growth); shrinkage needs no pages — apply truncates.
pub fn diff_images(
    parent: &[u8],
    new: &[u8],
    parent_version: u64,
    page_bytes: usize,
) -> Result<(Vec<u8>, DeltaStats), CkptError> {
    validate_page_bytes(page_bytes)?;
    let mut stats = DeltaStats::default();
    let mut dirty: Vec<u64> = Vec::new();
    for (i, page) in new.chunks(page_bytes).enumerate() {
        stats.total_pages += 1;
        let start = i * page_bytes;
        let end = start + page.len();
        let clean = end <= parent.len() && pages_equal(&parent[start..end], page);
        if !clean {
            stats.dirty_pages += 1;
            stats.payload_bytes += page.len();
            dirty.push(i as u64);
        }
    }
    let mut out = Vec::with_capacity(HEADER_LEN + stats.payload_bytes + dirty.len() * 8 + 4);
    out.extend_from_slice(DELTA_MAGIC);
    put_u32(&mut out, DELTA_VERSION);
    put_u64(&mut out, parent_version);
    put_u32(&mut out, page_bytes as u32);
    put_u64(&mut out, new.len() as u64);
    put_u64(&mut out, dirty.len() as u64);
    for &id in &dirty {
        put_u64(&mut out, id);
        let start = id as usize * page_bytes;
        let end = (start + page_bytes).min(new.len());
        out.extend_from_slice(&new[start..end]);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    Ok((out, stats))
}

/// The parent version a delta file patches. Reads only the fixed header —
/// no CRC pass — so retention sweeps can classify chains cheaply; a file
/// too short to hold the header (or with the wrong magic) is rejected.
/// A delta stored inside a `SCRUTCZB` container is decoded first.
pub fn parent_version(delta: &[u8]) -> Result<u64, CkptError> {
    if crate::compress::is_container(delta) {
        return Ok(open_header(&crate::compress::decompress(delta)?)?.0);
    }
    Ok(open_header(delta)?.0)
}

/// A delta's fixed header, as far as its parent version: the length,
/// magic and version checked, the cursor left at `page_bytes`. No CRC
/// pass, so a torn delta whose header is intact still names its parent.
fn open_header(delta: &[u8]) -> Result<(u64, Cursor<'_>), CkptError> {
    if delta.len() < HEADER_LEN + 4 {
        return Err(CkptError::Corrupt("delta file too short".into()));
    }
    let mut c = Cursor::new(&delta[..delta.len() - 4]);
    if c.take(8)? != DELTA_MAGIC {
        return Err(CkptError::Corrupt("delta file has wrong magic".into()));
    }
    c.version(&[DELTA_VERSION], "delta file")?;
    Ok((c.u64()?, c))
}

/// Verify a delta file's envelope: length, magic, and the CRC-32
/// trailer. [`apply_delta`] runs this first; the parallel restore
/// pipeline runs it concurrently across chain links and then patches
/// with [`apply_delta_verified`] so each link is hashed exactly once.
pub(crate) fn check_delta(delta: &[u8]) -> Result<(), CkptError> {
    check_envelope(delta, DELTA_MAGIC, HEADER_LEN + 4, "delta file").map(|_| ())
}

/// Parse and CRC-verify a delta file, then patch `parent` with it:
/// truncate or zero-extend to the recorded length, overwrite the dirty
/// pages. Returns the reconstructed data-file image.
pub fn apply_delta(parent: &[u8], delta: &[u8]) -> Result<Vec<u8>, CkptError> {
    check_delta(delta)?;
    apply_delta_verified(parent, delta)
}

/// [`apply_delta`] minus the envelope pass — the delta must already have
/// passed [`check_delta`]. Structural bounds (page table, payload
/// lengths) are still validated here.
pub(crate) fn apply_delta_verified(parent: &[u8], delta: &[u8]) -> Result<Vec<u8>, CkptError> {
    let (_, mut c) = open_header(delta)?;
    let page_bytes = c.u32()? as usize;
    if page_bytes == 0 {
        return Err(CkptError::Corrupt(
            "delta file declares zero page size".into(),
        ));
    }
    let full_len = c.u64()?;
    let npages = c.u64()?;
    // Every page entry holds at least its `u64` id.
    let npages = c.count(npages, 8)?;
    // The writer stores every page that reaches past the parent, so an
    // image is never longer than what the two inputs hold; a CRC-consistent
    // length beyond that must not size an allocation.
    if full_len > (parent.len() + delta.len()) as u64 {
        return Err(CkptError::Corrupt(format!(
            "delta declares a {full_len}-byte image, more than its parent ({}) and itself ({}) hold",
            parent.len(),
            delta.len()
        )));
    }
    let full_len = full_len as usize;

    let mut out = vec![0u8; full_len];
    let keep = parent.len().min(full_len);
    out[..keep].copy_from_slice(&parent[..keep]);

    for _ in 0..npages {
        let id = c.u64()? as usize;
        let start = id
            .checked_mul(page_bytes)
            .filter(|&s| s < full_len)
            .ok_or_else(|| CkptError::Corrupt(format!("delta page {id} lies beyond the image")))?;
        let len = page_bytes.min(full_len - start);
        copy_page(&mut out[start..start + len], c.take(len)?);
    }
    c.finish("delta file")?;
    Ok(out)
}

pub(crate) fn is_not_found(e: &CkptError) -> bool {
    matches!(e, CkptError::Io(io) if io.kind() == std::io::ErrorKind::NotFound)
}

/// The full image a delta chain anchors on, as discovered by
/// [`walk_chain`].
pub(crate) enum ChainBase {
    /// One `ckpt_v.data` object, fetched whole.
    Monolithic(Vec<u8>),
    /// A parsed `ckpt_v.smf` manifest; the shards themselves are not yet
    /// fetched — the reader's job pool does that.
    Sharded {
        /// Version holding the manifest (the chain's anchor).
        version: u64,
        /// Its parsed, CRC-verified manifest.
        manifest: ShardManifest,
    },
}

/// Walk `version`'s parent pointers newest-first until a full
/// (monolithic or sharded) image anchors the chain; returns the base and
/// the delta files in walk order (newest first, **not** yet
/// CRC-verified). The discovery phase of the one reader
/// ([`crate::restore::read_data_image_parallel`]): layout probing, cycle
/// rejection and the chain-length bound live here. `fetch` hands over raw
/// objects — the reader decodes `SCRUTCZB` containers before this sees
/// them.
pub(crate) fn walk_chain(
    version: u64,
    fetch: impl Fn(&str) -> Result<Vec<u8>, CkptError>,
) -> Result<(ChainBase, Vec<Vec<u8>>), CkptError> {
    let mut deltas: Vec<Vec<u8>> = Vec::new();
    let mut v = version;
    // Layout probing only follows a definite "no such object".
    let probe = |name: &str| match fetch(name) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if is_not_found(&e) => Ok(None),
        Err(e) => Err(e),
    };
    let base = loop {
        if let Some(data) = probe(&names::data(v))? {
            break ChainBase::Monolithic(data);
        }
        if let Some(m) = probe(&names::manifest(v))? {
            let manifest = ShardManifest::from_bytes(&m)?;
            break ChainBase::Sharded {
                version: v,
                manifest,
            };
        }
        let delta = fetch(&names::delta(v))?;
        let parent = parent_version(&delta)?;
        if parent >= v {
            return Err(CkptError::Corrupt(format!(
                "delta {v} names parent {parent}, which is not older"
            )));
        }
        deltas.push(delta);
        if deltas.len() > MAX_CHAIN_LEN {
            return Err(CkptError::Corrupt(format!(
                "delta chain from {version} exceeds {MAX_CHAIN_LEN} links"
            )));
        }
        v = parent;
    };
    Ok((base, deltas))
}

/// The serialized data one epoch publishes — one variant per layout.
pub enum EpochBody<'a> {
    /// One data-file image, published whole as `ckpt_v.data`.
    Image(&'a [u8]),
    /// One data-file image that is a member of a base+delta chain:
    /// published as `ckpt_v.delta` (its dirty pages against `prev`) while
    /// `prev` exists and fewer than `policy.rebase_every` consecutive
    /// deltas were written, else whole as a fresh base `ckpt_v.data`.
    Chained {
        /// This epoch's data-file image.
        image: &'a [u8],
        /// Diff granularity and rebase cadence.
        policy: &'a DeltaPolicy,
        /// Version and raw image of the last published epoch.
        prev: Option<&'a (u64, Vec<u8>)>,
        /// Consecutive deltas written since the last full base.
        deltas_since_base: usize,
    },
    /// Every [`crate::shard::serialize_shard`] output of one plan, in plan
    /// order and not yet sealed: the publisher seals them
    /// ([`seal_shards`] — the one place a [`ShardManifest`] is built, for
    /// the one layout that stores it) into one `ckpt_v.data.sNNN` object
    /// per shard plus `ckpt_v.smf`, the layout's commit marker.
    Sharded {
        /// The serialized segments, in plan order.
        shards: Vec<Vec<u8>>,
    },
}

/// Publish checkpoint `version` through `put` — **the** publication
/// routine: [`crate::CheckpointStore::save`] / `save_delta` and the async
/// engine's finisher are its three callers, so the writers cannot drift
/// in layout, write order, rebase cadence, compression or accounting.
///
/// `payload_bytes` is the element payload inside `body` (what
/// [`crate::shard::serialize_shard`] reports beside its bytes) and `aux`
/// the epoch's auxiliary file with its encoded run bytes (what
/// [`crate::writer::serialize_aux`] returns); the accounting of storing
/// `body` whole and uncompressed beside it — what
/// [`crate::writer::serialize_with`] reports — is derived here, from the
/// sealed length, for every layout. `at_rest` is applied here, per stored
/// data/shard/delta object, from the borrowed slice and under a
/// `ckpt.compress` span on `rec`; the auxiliary file and the shard
/// manifest are never compressed, and diffing sees only raw images.
///
/// `put(name, bytes, compressed_from)` stores one object;
/// `compressed_from` is `Some(raw_len)` when `bytes` is the `SCRUTCZB`
/// container of `raw_len` raw bytes. Objects arrive in the order of
/// FORMATS §7 — shards, then `aux`, then the commit marker (the one
/// object for which [`names::committed_version`] is `Some(version)`)
/// **last** — and the first failing `put` aborts the epoch with nothing
/// committed.
///
/// Returns what was [`Published`].
pub fn publish_epoch(
    version: u64,
    body: EpochBody<'_>,
    payload_bytes: usize,
    aux: (&[u8], usize),
    at_rest: AtRest,
    rec: &Recorder,
    mut put: impl FnMut(&str, &[u8], Option<usize>) -> Result<(), CkptError>,
) -> Result<Published, CkptError> {
    let (aux, run_bytes) = aux;
    // Accounting of one data-bearing object stored raw beside `aux`.
    let account = |len, payload| full_breakdown(len, payload, aux.len(), run_bytes);
    // (raw, stored) bytes of the objects that went through the codec.
    let mut coded = (0usize, 0usize);
    // `code`: a data-bearing object (image, shard, delta) the at-rest
    // codec applies to; `aux` and the manifest pass `false`. `raw_crc`:
    // the object's CRC-32 when the seal already computed it (a shard's
    // manifest entry), so the codec does not hash it again.
    let mut emit = |name: &str, raw: &[u8], code: bool, raw_crc: Option<u32>| {
        if !code || at_rest == AtRest::None {
            return put(name, raw, None);
        }
        let stored = {
            let _span = span!(rec, "ckpt.compress", raw_bytes = raw.len());
            let raw_crc = raw_crc.unwrap_or_else(|| crc32(raw));
            crate::compress::compress_known_crc(raw, at_rest, raw_crc)
        };
        coded.0 += raw.len();
        coded.1 += stored.len();
        put(name, &stored, Some(raw.len()))
    };
    let mut deltas_since_base = 0;
    let mut parent = None;
    let stored = match body {
        EpochBody::Sharded { shards } => {
            let (sealed, manifest) = seal_shards(shards);
            for (i, (shard, &crc)) in sealed.iter().zip(&manifest.shard_crcs).enumerate() {
                emit(&names::shard(version, i), shard, true, Some(crc))?;
            }
            emit(&names::aux(version), aux, false, None)?;
            emit(&names::manifest(version), &manifest.to_bytes(), false, None)?;
            account(manifest.total_len as usize, payload_bytes)
        }
        EpochBody::Chained {
            image,
            policy,
            prev: Some((parent_version, parent_image)),
            deltas_since_base: n,
        } if n < policy.rebase_every => {
            let (delta, stats) =
                diff_images(parent_image, image, *parent_version, policy.page_bytes)?;
            deltas_since_base = n + 1;
            parent = Some(*parent_version);
            emit(&names::aux(version), aux, false, None)?;
            emit(&names::delta(version), &delta, true, None)?;
            account(delta.len(), stats.payload_bytes)
        }
        EpochBody::Image(image) | EpochBody::Chained { image, .. } => {
            emit(&names::aux(version), aux, false, None)?;
            emit(&names::data(version), image, true, None)?;
            account(image.len(), payload_bytes)
        }
    };
    Ok(Published {
        stored: rebalance_breakdown(stored, coded.0, coded.1),
        deltas_since_base,
        parent,
    })
}

/// What [`publish_epoch`] wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Published {
    /// The bytes actually stored, split by kind.
    pub stored: StorageBreakdown,
    /// The chain's new consecutive-delta count (0 unless a delta was
    /// written).
    pub deltas_since_base: usize,
    /// The version the epoch's delta patches; `None` when it was stored
    /// whole. A writer hands these to
    /// [`crate::backend::prune_chain_aware`], which then needs no read
    /// to learn what the writer already knew.
    pub parent: Option<u64>,
}

/// Classify a listing of object/file names into committed versions and
/// their kind — `(version, is_delta)`, ascending — the input
/// [`live_versions`] expects. A version holding both a full image
/// (data file or shard manifest) and a delta file counts as full:
/// readers probe the full image first, so the delta is dead weight there.
pub fn committed_kinds<S: AsRef<str>>(names_list: impl IntoIterator<Item = S>) -> Vec<(u64, bool)> {
    use std::collections::BTreeMap;
    let mut kinds: BTreeMap<u64, bool> = BTreeMap::new();
    for name in names_list {
        match names::classify(name.as_ref()) {
            crate::names::CkptName::Data(v) | crate::names::CkptName::Manifest(v) => {
                kinds.insert(v, false);
            }
            crate::names::CkptName::Delta(v) => {
                kinds.entry(v).or_insert(true);
            }
            _ => {}
        }
    }
    kinds.into_iter().collect()
}

/// Chain-aware retention: which versions must stay on disk when keeping
/// the newest `keep` checkpoints. `committed` is every committed version,
/// ascending, flagged `true` when its commit marker is a delta file;
/// `parent_of` resolves a delta version to its parent (called only for
/// deltas). The newest `keep` versions are live, and so is every ancestor
/// a live delta transitively patches — a base is never pruned out from
/// under a live chain.
pub fn live_versions(
    committed: &[(u64, bool)],
    keep: usize,
    mut parent_of: impl FnMut(u64) -> Result<u64, CkptError>,
) -> Result<std::collections::BTreeSet<u64>, CkptError> {
    use std::collections::{BTreeMap, BTreeSet};
    let kinds: BTreeMap<u64, bool> = committed.iter().copied().collect();
    let mut live: BTreeSet<u64> = committed.iter().rev().take(keep).map(|&(v, _)| v).collect();
    let mut frontier: Vec<u64> = live.iter().copied().collect();
    while let Some(v) = frontier.pop() {
        if kinds.get(&v) != Some(&true) {
            continue; // full checkpoint (or unknown): chain ends here
        }
        let parent = parent_of(v)?;
        if parent >= v {
            return Err(CkptError::Corrupt(format!(
                "delta {v} names parent {parent}, which is not older"
            )));
        }
        if live.insert(parent) {
            frontier.push(parent);
        }
    }
    Ok(live)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::restore::{read_data_image_parallel, RestoreOptions};
    use std::collections::HashMap;

    /// The one reader on one thread.
    const SERIAL: RestoreOptions = RestoreOptions { threads: 1 };

    /// Byte-at-a-time reference for [`pages_equal`] — the baseline the
    /// vectorized comparison is proven bit-identical to.
    fn pages_equal_scalar(a: &[u8], b: &[u8]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
    }

    /// Byte-at-a-time reference for [`copy_page`].
    fn copy_page_scalar(dst: &mut [u8], src: &[u8]) {
        debug_assert_eq!(dst.len(), src.len());
        for (d, s) in dst.iter_mut().zip(src) {
            *d = *s;
        }
    }

    fn image(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn word_compare_and_copy_match_scalar_at_every_length_and_position() {
        // Lengths straddling the 16-byte word size, the 8-byte prefix,
        // and both tails; a flipped byte at every position.
        for len in 0..48usize {
            let a = image(len, 7);
            assert_eq!(pages_equal(&a, &a), pages_equal_scalar(&a, &a));
            assert!(pages_equal(&a, &a));
            for at in 0..len {
                let mut b = a.clone();
                b[at] ^= 0x10;
                assert_eq!(pages_equal(&a, &b), pages_equal_scalar(&a, &b));
                assert!(!pages_equal(&a, &b), "len={len} at={at}");
            }
            let mut b = a.clone();
            b.push(0);
            assert!(!pages_equal(&a, &b));

            let mut dst_v = vec![0xAAu8; len];
            let mut dst_s = vec![0xAAu8; len];
            copy_page(&mut dst_v, &a);
            copy_page_scalar(&mut dst_s, &a);
            assert_eq!(dst_v, a);
            assert_eq!(dst_v, dst_s);
        }
    }

    #[test]
    fn identical_images_produce_no_pages() {
        let a = image(1000, 3);
        let (delta, stats) = diff_images(&a, &a, 7, 64).unwrap();
        assert_eq!(stats.dirty_pages, 0);
        assert_eq!(stats.payload_bytes, 0);
        assert_eq!(stats.total_pages, 16);
        assert_eq!(parent_version(&delta).unwrap(), 7);
        assert_eq!(apply_delta(&a, &delta).unwrap(), a);
    }

    #[test]
    fn localized_change_stores_one_page() {
        let a = image(1024, 0);
        let mut b = a.clone();
        b[200] ^= 0xFF;
        let (delta, stats) = diff_images(&a, &b, 0, 128).unwrap();
        assert_eq!(stats.dirty_pages, 1);
        assert_eq!(stats.payload_bytes, 128);
        assert_eq!(apply_delta(&a, &delta).unwrap(), b);
        assert!(delta.len() < b.len() / 2, "delta should be much smaller");
    }

    #[test]
    fn growth_and_shrink_roundtrip() {
        let a = image(300, 1);
        let grown = image(500, 1); // same prefix pattern, longer
        let (d, s) = diff_images(&a, &grown, 0, 64).unwrap();
        assert_eq!(apply_delta(&a, &d).unwrap(), grown);
        // Pages fully inside the old image and unchanged stay clean.
        assert!(s.dirty_pages < s.total_pages);

        let shrunk = image(100, 1);
        let (d, _) = diff_images(&grown, &shrunk, 0, 64).unwrap();
        assert_eq!(apply_delta(&grown, &d).unwrap(), shrunk);
    }

    #[test]
    fn tail_partial_page_diffs_exactly() {
        let a = image(130, 9); // 64 + 64 + 2
        let mut b = a.clone();
        b[129] ^= 1;
        let (d, s) = diff_images(&a, &b, 0, 64).unwrap();
        assert_eq!(s.total_pages, 3);
        assert_eq!(s.dirty_pages, 1);
        assert_eq!(s.payload_bytes, 2);
        assert_eq!(apply_delta(&a, &d).unwrap(), b);
    }

    #[test]
    fn corruption_detected_on_apply() {
        let a = image(256, 2);
        let mut b = a.clone();
        b[0] ^= 1;
        let (mut d, _) = diff_images(&a, &b, 0, 64).unwrap();
        let mid = d.len() / 2;
        d[mid] ^= 0xFF;
        assert!(matches!(
            apply_delta(&a, &d),
            Err(CkptError::ChecksumMismatch { .. })
        ));
        let (d, _) = diff_images(&a, &b, 0, 64).unwrap();
        assert!(apply_delta(&a, &d[..d.len() - 6]).is_err());
    }

    #[test]
    fn zero_page_size_is_invalid_config() {
        assert!(matches!(
            diff_images(b"a", b"b", 0, 0),
            Err(CkptError::InvalidConfig(_))
        ));
        // A page size beyond the header's u32 field must be rejected up
        // front, not silently truncated into an unappliable delta.
        #[cfg(target_pointer_width = "64")]
        assert!(matches!(
            diff_images(b"a", b"b", 0, u32::MAX as usize + 1),
            Err(CkptError::InvalidConfig(_))
        ));
        assert!(DeltaPolicy {
            page_bytes: 0,
            rebase_every: 4
        }
        .validate()
        .is_err());
        assert!(DeltaPolicy {
            page_bytes: 64,
            rebase_every: 0
        }
        .validate()
        .is_err());
        DeltaPolicy::default().validate().unwrap();
    }

    /// A name → bytes map as the fetch callback the reader takes.
    pub(crate) fn mem_fetch(
        objects: &HashMap<String, Vec<u8>>,
    ) -> impl Fn(&str) -> Result<Vec<u8>, CkptError> + Sync + '_ {
        |name| {
            objects.get(name).cloned().ok_or_else(|| {
                CkptError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    name.to_string(),
                ))
            })
        }
    }

    #[test]
    fn chain_reconstruction_is_bit_identical() {
        // Base at 0, deltas at 1..=3, each mutating a different page.
        let mut objects = HashMap::new();
        let mut img = image(2000, 5);
        objects.insert(names::data(0), img.clone());
        for v in 1u64..=3 {
            let mut next = img.clone();
            let at = (v as usize * 311) % next.len();
            next[at] = next[at].wrapping_add(v as u8);
            let (d, _) = diff_images(&img, &next, v - 1, 128).unwrap();
            objects.insert(names::delta(v), d);
            img = next;
        }
        let (got, _) = read_data_image_parallel(3, &mem_fetch(&objects), &SERIAL).unwrap();
        assert_eq!(got, img);
        // Intermediate versions reconstruct too.
        assert!(read_data_image_parallel(1, &mem_fetch(&objects), &SERIAL).is_ok());
    }

    #[test]
    fn missing_base_surfaces_not_found() {
        let mut objects = HashMap::new();
        let a = image(100, 0);
        let (d, _) = diff_images(&a, &a, 0, 64).unwrap();
        objects.insert(names::delta(1), d);
        // Parent 0 has no image at all.
        assert!(read_data_image_parallel(1, &mem_fetch(&objects), &SERIAL).is_err());
    }

    #[test]
    fn cyclic_parent_rejected() {
        let a = image(100, 0);
        let (d, _) = diff_images(&a, &a, 5, 64).unwrap();
        let mut objects = HashMap::new();
        objects.insert(names::delta(5), d);
        match read_data_image_parallel(5, &mem_fetch(&objects), &SERIAL) {
            Err(CkptError::Corrupt(m)) => assert!(m.contains("not older"), "{m}"),
            other => panic!("expected corrupt-cycle error, got {other:?}"),
        };
    }

    #[test]
    fn committed_kinds_classifies_and_prefers_full() {
        let kinds = committed_kinds([
            names::data(0),
            names::aux(0),
            names::delta(1),
            names::aux(1),
            names::manifest(2),
            names::shard(2, 0),
            // Version 3 has both a full image and a delta: counts full.
            names::data(3),
            names::delta(3),
            "notes.txt".to_string(),
        ]);
        assert_eq!(kinds, vec![(0, false), (1, true), (2, false), (3, false)]);
    }

    #[test]
    fn parent_version_at_reads_only_the_header() {
        let a = image(5000, 4);
        let mut b = a.clone();
        b[0] ^= 1;
        let (d, _) = diff_images(&a, &b, 41, 64).unwrap();
        assert_eq!(parent_version(&d).unwrap(), 41);
        // No CRC pass, no page table: the fixed header prefix is enough,
        // and damage behind it does not matter to a retention sweep.
        assert_eq!(parent_version(&d[..HEADER_LEN + 4]).unwrap(), 41);
        let mut torn = d.clone();
        *torn.last_mut().unwrap() ^= 0xFF;
        assert_eq!(parent_version(&torn).unwrap(), 41);
        assert!(parent_version(&d[..HEADER_LEN + 3]).is_err());
        // Through the at-rest container too.
        let z = crate::compress::compress(&d, AtRest::Auto);
        assert_eq!(parent_version(&z).unwrap(), 41);
    }

    #[test]
    fn live_set_pins_chain_ancestors() {
        // 0 full, 1..=3 deltas (parent = v-1), 4 full, 5 delta (parent 4).
        let committed = [
            (0, false),
            (1, true),
            (2, true),
            (3, true),
            (4, false),
            (5, true),
        ];
        let live = live_versions(&committed, 2, |v| Ok(v - 1)).unwrap();
        // Newest two are 4 and 5; 5 is a delta whose parent 4 is already
        // live, so the old chain 0..=3 may go.
        assert_eq!(live.into_iter().collect::<Vec<_>>(), vec![4, 5]);

        let live = live_versions(&committed[..4], 1, |v| Ok(v - 1)).unwrap();
        // Keeping only delta 3 pins its whole ancestry.
        assert_eq!(live.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }
}
