//! Canonical checkpoint object/file names.
//!
//! One grammar, used everywhere a checkpoint is named: the on-disk store
//! ([`crate::CheckpointStore`]), the reader's sharded-layout acceptance,
//! and the async engine's storage backends. Keeping it in one place means
//! a format change (padding width, a new suffix) cannot desynchronize the
//! writers from the sweepers.
//!
//! * `ckpt_vvvvvv.data` — monolithic data file (commit marker).
//! * `ckpt_vvvvvv.aux` — auxiliary region file.
//! * `ckpt_vvvvvv.data.sNNN` — one data shard (sharded layout).
//! * `ckpt_vvvvvv.smf` — shard manifest (sharded layout's commit marker).
//! * `ckpt_vvvvvv.delta` — dirty pages against a parent checkpoint (the
//!   delta layout's commit marker; see [`crate::delta`]).
//! * `*.tmp` — an in-progress atomic write; never a published object.
//!
//! # Tenant namespaces
//!
//! One storage pool can hold many independent version chains by
//! prefixing every object name with a tenant id and a `/`:
//! `<tenant>/ckpt_vvvvvv.data`. Tenant ids are validated by [`Tenant`]
//! (lowercase `[a-z0-9_]`, starting with a letter, at most
//! [`TENANT_MAX_LEN`] bytes — deliberately a single segment of the obs
//! naming scheme, so a tenant id can appear verbatim in per-tenant
//! metric names). The un-prefixed grammar is the **default tenant**:
//! [`classify`] parses only un-prefixed names and returns
//! [`CkptName::Foreign`] for anything containing a `/`, so every
//! existing sweep, prune, and recovery scan ignores namespaced objects
//! rather than mistaking `t1/x.tmp` for its own debris. Tenant-scoped
//! tooling uses [`split_tenant`] / [`classify_scoped`], or simply runs
//! the un-prefixed grammar over a namespaced view of the pool (see
//! `scrutiny-engine`'s `NamespacedBackend`).

use crate::format::CkptError;
use std::fmt;

/// Maximum length of a tenant id, in bytes.
pub const TENANT_MAX_LEN: usize = 32;

/// Whether `id` is a well-formed tenant id: non-empty, at most
/// [`TENANT_MAX_LEN`] bytes of `[a-z0-9_]`, starting with a lowercase
/// letter, and therefore also a valid segment of an obs metric name.
pub fn valid_tenant_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= TENANT_MAX_LEN
        && id.starts_with(|c: char| c.is_ascii_lowercase())
        && id
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// A validated tenant namespace id.
///
/// Constructing one proves the id fits the grammar above, so everything
/// downstream (name prefixing, per-tenant obs metric names, daemon
/// session state) can use it without re-checking.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tenant(String);

impl Tenant {
    /// Validate `id` as a tenant id.
    pub fn new(id: &str) -> Result<Tenant, CkptError> {
        if valid_tenant_id(id) {
            Ok(Tenant(id.to_string()))
        } else {
            Err(CkptError::InvalidConfig(format!(
                "invalid tenant id {id:?}: want 1..={TENANT_MAX_LEN} bytes of \
                 [a-z0-9_] starting with a letter"
            )))
        }
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Prefix an (un-prefixed, default-grammar) object name into this
    /// tenant's namespace: `scoped("ckpt_000001.data")` →
    /// `"t1/ckpt_000001.data"`.
    pub fn scoped(&self, name: &str) -> String {
        format!("{}/{name}", self.0)
    }
}

impl fmt::Display for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for Tenant {
    type Err = CkptError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Tenant::new(s)
    }
}

/// Split a pool-level name into `(tenant, local)`: `"t1/x"` →
/// `(Some("t1"), "x")`, `"x"` → `(None, "x")`. The tenant part is *not*
/// validated — callers deciding trust (e.g. a daemon) should pass it
/// through [`Tenant::new`].
pub fn split_tenant(name: &str) -> (Option<&str>, &str) {
    match name.split_once('/') {
        Some((tenant, local)) => (Some(tenant), local),
        None => (None, name),
    }
}

/// Classify a pool-level name in whatever namespace it lives in:
/// `(tenant, classification of the tenant-local name)`. A doubly-nested
/// name (`a/b/x`) classifies as [`CkptName::Foreign`] within `a` — one
/// level of namespacing, per the grammar.
pub fn classify_scoped(name: &str) -> (Option<&str>, CkptName) {
    let (tenant, local) = split_tenant(name);
    (tenant, classify(local))
}

/// Monolithic data object/file name for `version`.
pub fn data(version: u64) -> String {
    format!("ckpt_{version:06}.data")
}

/// Auxiliary (region table) object/file name for `version`.
pub fn aux(version: u64) -> String {
    format!("ckpt_{version:06}.aux")
}

/// Shard-manifest object/file name for `version`.
pub fn manifest(version: u64) -> String {
    format!("ckpt_{version:06}.smf")
}

/// Data-shard object/file name for `version`, shard index `shard`.
pub fn shard(version: u64, shard: usize) -> String {
    format!("ckpt_{version:06}.data.s{shard:03}")
}

/// Delta object/file name for `version` (base+delta layout).
pub fn delta(version: u64) -> String {
    format!("ckpt_{version:06}.delta")
}

/// What a checkpoint object/file name denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CkptName {
    /// `ckpt_v.data` — monolithic data file.
    Data(u64),
    /// `ckpt_v.aux` — auxiliary region file.
    Aux(u64),
    /// `ckpt_v.smf` — shard manifest.
    Manifest(u64),
    /// `ckpt_v.data.sNNN` — one data shard.
    Shard {
        /// Checkpoint version the shard belongs to.
        version: u64,
        /// Zero-based shard index.
        shard: usize,
    },
    /// `ckpt_v.delta` — dirty pages against a parent checkpoint.
    Delta(u64),
    /// `*.tmp` — an interrupted atomic write.
    Tmp,
    /// `<tenant>/...` — an object inside some tenant's namespace,
    /// opaque at this scope. Checked **before** every other rule (in
    /// particular `.tmp`), so a default-tenant sweep can never mistake
    /// another tenant's debris — or anything else of theirs — for its
    /// own.
    Foreign,
    /// Not a checkpoint name.
    Other,
}

impl CkptName {
    /// The checkpoint version this object belongs to, marker or not.
    pub fn version(self) -> Option<u64> {
        match self {
            CkptName::Data(v) | CkptName::Aux(v) | CkptName::Manifest(v) | CkptName::Delta(v) => {
                Some(v)
            }
            CkptName::Shard { version, .. } => Some(version),
            CkptName::Tmp | CkptName::Foreign | CkptName::Other => None,
        }
    }
}

/// Parse a name against the grammar above, at default-tenant scope:
/// any name containing `/` is [`CkptName::Foreign`]. To classify inside
/// a namespace, use [`classify_scoped`].
pub fn classify(name: &str) -> CkptName {
    if name.contains('/') {
        return CkptName::Foreign;
    }
    if name.ends_with(".tmp") {
        return CkptName::Tmp;
    }
    let Some(rest) = name.strip_prefix("ckpt_") else {
        return CkptName::Other;
    };
    let Some((num, suffix)) = rest.split_once('.') else {
        return CkptName::Other;
    };
    let Ok(version) = num.parse::<u64>() else {
        return CkptName::Other;
    };
    match suffix {
        "data" => CkptName::Data(version),
        "smf" => CkptName::Manifest(version),
        "aux" => CkptName::Aux(version),
        "delta" => CkptName::Delta(version),
        s => match s.strip_prefix("data.s").map(str::parse::<usize>) {
            Some(Ok(shard)) => CkptName::Shard { version, shard },
            _ => CkptName::Other,
        },
    }
}

/// The version a name *commits*: a monolithic data file, a shard
/// manifest, or a delta file. Aux files and bare shards do not make a
/// checkpoint visible.
pub fn committed_version(name: &str) -> Option<u64> {
    match classify(name) {
        CkptName::Data(v) | CkptName::Manifest(v) | CkptName::Delta(v) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_roundtrips() {
        assert_eq!(classify(&data(3)), CkptName::Data(3));
        assert_eq!(classify(&aux(3)), CkptName::Aux(3));
        assert_eq!(classify(&manifest(4)), CkptName::Manifest(4));
        assert_eq!(
            classify(&shard(4, 17)),
            CkptName::Shard {
                version: 4,
                shard: 17
            }
        );
        assert_eq!(classify(&delta(6)), CkptName::Delta(6));
        assert_eq!(classify("ckpt_000004.data.tmp"), CkptName::Tmp);
        assert_eq!(classify("ckpt_000004.delta.tmp"), CkptName::Tmp);
        assert_eq!(classify("notes.txt"), CkptName::Other);
        assert_eq!(classify("ckpt_abc.data"), CkptName::Other);
        assert_eq!(classify("ckpt_000004.data.sx"), CkptName::Other);
    }

    #[test]
    fn tenant_names_are_foreign_at_default_scope() {
        let t = Tenant::new("t1").unwrap();
        // Everything namespaced — *including tenant debris* — is opaque
        // to the default tenant; a root sweep must never delete
        // `t1/....tmp`.
        assert_eq!(classify(&t.scoped(&data(3))), CkptName::Foreign);
        assert_eq!(classify("t1/ckpt_000004.data.tmp"), CkptName::Foreign);
        assert_eq!(committed_version(&t.scoped(&data(3))), None);
        // Scoped classification sees through the prefix.
        assert_eq!(
            classify_scoped(&t.scoped(&manifest(7))),
            (Some("t1"), CkptName::Manifest(7))
        );
        assert_eq!(classify_scoped(&aux(2)), (None, CkptName::Aux(2)));
        // One level of namespacing only.
        assert_eq!(
            classify_scoped("a/b/ckpt_000001.data"),
            (Some("a"), CkptName::Foreign)
        );
        assert_eq!(split_tenant("t1/x"), (Some("t1"), "x"));
        assert_eq!(split_tenant("x"), (None, "x"));
    }

    #[test]
    fn tenant_validation() {
        for ok in ["a", "tenant_1", "x0_y", &"a".repeat(TENANT_MAX_LEN)] {
            assert!(Tenant::new(ok).is_ok(), "{ok:?} should validate");
        }
        for bad in [
            "",
            "Tenant",
            "1abc",
            "_x",
            "a-b",
            "a.b",
            "a/b",
            &"a".repeat(TENANT_MAX_LEN + 1),
        ] {
            assert!(
                matches!(Tenant::new(bad), Err(CkptError::InvalidConfig(_))),
                "{bad:?} should be rejected"
            );
        }
        let t: Tenant = "npb_cg".parse().unwrap();
        assert_eq!(t.as_str(), "npb_cg");
        assert_eq!(t.to_string(), "npb_cg");
        assert_eq!(t.scoped("ckpt_000001.aux"), "npb_cg/ckpt_000001.aux");
    }

    #[test]
    fn committed_versions() {
        assert_eq!(committed_version(&data(9)), Some(9));
        assert_eq!(committed_version(&manifest(9)), Some(9));
        assert_eq!(committed_version(&delta(9)), Some(9));
        assert_eq!(committed_version(&aux(9)), None);
        assert_eq!(committed_version(&shard(9, 0)), None);
        assert_eq!(committed_version("junk"), None);
        assert_eq!(classify(&shard(9, 0)).version(), Some(9));
        assert_eq!(classify(&aux(9)).version(), Some(9));
        assert_eq!(classify("ckpt_000009.data.tmp").version(), None);
    }
}
