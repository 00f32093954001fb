//! Storage backends for the engine's publisher.
//!
//! The object-store seam itself — [`StorageBackend`], [`DirBackend`],
//! [`MemBackend`], and the version-level [`list_versions`],
//! [`read_version`] and [`prune_chain_aware`] — lives in
//! [`scrutiny_ckpt::backend`], below the blocking
//! [`scrutiny_ckpt::CheckpointStore`], and is re-exported here under the
//! names it always had. What stays in this crate is what only a pool
//! needs: [`NamespacedBackend`] (one tenant's view) and [`list_tenants`].

use crate::error::EngineError;
use scrutiny_ckpt::names::{self, Tenant};
use scrutiny_ckpt::CkptError;
use std::sync::Arc;

pub use scrutiny_ckpt::backend::{
    list_versions, prune_chain_aware, read_version, DirBackend, MemBackend, StorageBackend,
};

/// Every tenant namespace with at least one object in the pool,
/// ascending. The default tenant (un-prefixed names) is not listed —
/// it always exists. Prefixes that fail tenant-id validation (foreign
/// directories someone else made) are skipped, not errors.
pub fn list_tenants(backend: &dyn StorageBackend) -> Result<Vec<Tenant>, EngineError> {
    let mut tenants: Vec<Tenant> = backend
        .list()?
        .iter()
        .filter_map(|n| names::split_tenant(n).0.and_then(|t| Tenant::new(t).ok()))
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    Ok(tenants)
}

// ---------------------------------------------------------------------------
// NamespacedBackend — one tenant's view of a shared pool.
// ---------------------------------------------------------------------------

/// Restricts a shared storage pool to one tenant's namespace (see
/// [`scrutiny_ckpt::names`], "Tenant namespaces"): `put`/`get`/`delete`
/// prefix names with `<tenant>/`, `list` returns only this tenant's
/// objects with the prefix stripped. An engine, recovery manager, prune,
/// or fault campaign handed a `NamespacedBackend` is tenant-scoped
/// without knowing tenancy exists — it sees a private pool speaking the
/// plain grammar.
///
/// [`NamespacedBackend::root`] is the **default tenant's** view: names
/// pass through un-prefixed, and `list` hides every namespaced object,
/// so root-scope sweeps cannot reach into tenant namespaces even through
/// backends (like [`MemBackend`]) that never interpret names.
///
/// Either view refuses names containing `/` with
/// [`CkptError::InvalidConfig`]: a namespace escape
/// (`put("../other", ..)`-style, spelled `other/...` here) is a caller
/// bug, never silently re-rooted.
pub struct NamespacedBackend {
    inner: Arc<dyn StorageBackend>,
    tenant: Option<Tenant>,
}

impl NamespacedBackend {
    /// `tenant`'s view of the pool `inner`.
    pub fn for_tenant(inner: Arc<dyn StorageBackend>, tenant: Tenant) -> Self {
        NamespacedBackend {
            inner,
            tenant: Some(tenant),
        }
    }

    /// The default tenant's (pool root) view of `inner`.
    pub fn root(inner: Arc<dyn StorageBackend>) -> Self {
        NamespacedBackend {
            inner,
            tenant: None,
        }
    }

    /// The tenant this view is scoped to; `None` for the root view.
    pub fn tenant(&self) -> Option<&Tenant> {
        self.tenant.as_ref()
    }

    fn full(&self, name: &str) -> Result<String, CkptError> {
        if name.contains('/') {
            return Err(CkptError::InvalidConfig(format!(
                "name {name:?} escapes the tenant namespace: object names \
                 inside a namespaced view must not contain '/'"
            )));
        }
        Ok(match &self.tenant {
            Some(t) => t.scoped(name),
            None => name.to_string(),
        })
    }
}

impl StorageBackend for NamespacedBackend {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        self.inner.put(&self.full(name)?, bytes)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.inner.get(&self.full(name)?)
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        let mine = self.tenant.as_ref().map(|t| t.as_str());
        Ok(self
            .inner
            .list()?
            .into_iter()
            .filter_map(|n| match names::split_tenant(&n) {
                (t, local) if t == mine && !local.contains('/') => Some(local.to_string()),
                _ => None,
            })
            .collect())
    }

    fn delete(&self, name: &str) -> Result<(), CkptError> {
        self.inner.delete(&self.full(name)?)
    }

    fn label(&self) -> String {
        match &self.tenant {
            Some(t) => format!("tenant:{t}@{}", self.inner.label()),
            None => format!("tenant:@{}", self.inner.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaced_views_partition_one_pool() {
        let pool: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let t1 = NamespacedBackend::for_tenant(pool.clone(), Tenant::new("t1").unwrap());
        let t2 = NamespacedBackend::for_tenant(pool.clone(), Tenant::new("t2").unwrap());
        let root = NamespacedBackend::root(pool.clone());
        t1.put(&names::data(1), b"one").unwrap();
        t2.put(&names::data(1), b"two").unwrap();
        root.put(&names::data(1), b"zero").unwrap();
        // Same grammar name, three distinct objects.
        assert_eq!(t1.get(&names::data(1)).unwrap(), b"one");
        assert_eq!(t2.get(&names::data(1)).unwrap(), b"two");
        assert_eq!(root.get(&names::data(1)).unwrap(), b"zero");
        // Each view lists only its own namespace, prefix-stripped.
        assert_eq!(t1.list().unwrap(), [names::data(1)]);
        assert_eq!(root.list().unwrap(), [names::data(1)]);
        assert_eq!(list_versions(&t1).unwrap(), [1]);
        // Deleting in one namespace leaves the others intact.
        t1.delete(&names::data(1)).unwrap();
        assert!(t1.get(&names::data(1)).is_err());
        assert_eq!(t2.get(&names::data(1)).unwrap(), b"two");
        assert_eq!(root.get(&names::data(1)).unwrap(), b"zero");
        // Escapes are refused, not re-rooted.
        assert!(matches!(
            t1.put("t2/evil", b"x"),
            Err(CkptError::InvalidConfig(_))
        ));
        assert!(matches!(
            root.get("t2/ckpt_000001.data"),
            Err(CkptError::InvalidConfig(_))
        ));
        let mut tenants: Vec<String> = list_tenants(pool.as_ref())
            .unwrap()
            .iter()
            .map(|t| t.as_str().to_string())
            .collect();
        tenants.sort();
        assert_eq!(tenants, ["t2"]);
    }
}
