//! Tenant registry: lazily opened per-tenant engines under one root,
//! sharing one global resident-byte budget.
//!
//! Each tenant owns a subdirectory `<root>/<name>` holding a complete,
//! standalone engine store that a plain [`logr::Engine`] can open later;
//! the daemon adds nothing to the on-disk format. Engines open lazily on
//! first use, exclusively locked through the engine's own `StoreLock`,
//! and write through a per-tenant [`GroupCommitVfs`], which owns the
//! tenant's write gate and commit state.
//!
//! # Budget apportionment
//!
//! One **global** resident-byte budget for spilled shard caches is split
//! evenly across live tenants and re-apportioned on every open and close
//! (evicting resident shards, oldest first, when a share shrinks). It
//! governs only which shards stay *resident in memory*, never what is on
//! disk.

use crate::commit::GroupCommitVfs;
use crate::protocol::{protocol, ServerError};
use logr::cluster::vfs::Vfs;
use logr::{Engine, SourceConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Maximum tenant-name length, in bytes.
pub const MAX_TENANT_NAME: usize = 64;

/// Validates a tenant name: 1–64 bytes of `[A-Za-z0-9_-]`.
///
/// The name becomes a single path component under the server root, so the
/// alphabet excludes separators, `.`, and anything else that could
/// traverse or alias directories.
pub fn validate_name(name: &str) -> Result<(), ServerError> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME {
        return Err(protocol(format!("tenant name must be 1..={MAX_TENANT_NAME} bytes")));
    }
    if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-') {
        return Err(protocol("tenant name may only contain [A-Za-z0-9_-]".to_owned()));
    }
    Ok(())
}

/// Engine parameters every tenant store is opened with.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Queries per summarization window.
    pub window: u64,
    /// Clusters (patterns) per window summary.
    pub clusters: usize,
    /// Deterministic seed for clustering.
    pub seed: u64,
    /// Default source (featurizer) for tenants that don't name one in
    /// their first frame. A request's `"source"` field overrides this at
    /// first open; a resumed store's manifest always wins over both.
    pub source: SourceConfig,
}

impl Default for EngineProfile {
    fn default() -> EngineProfile {
        EngineProfile { window: 64, clusters: 4, seed: 42, source: SourceConfig::Sql }
    }
}

/// One live tenant: its engine and its group-commit wrapper, which owns
/// the tenant's write gate and commit state (a failed flush included).
#[derive(Debug)]
pub struct Tenant {
    /// The validated tenant name.
    pub name: String,
    /// The tenant's engine, writing through [`Tenant::commit`].
    pub engine: Engine,
    /// The group-commit vfs wrapper: every write runs under its gate
    /// ([`GroupCommitVfs::run_gated`]); reads, stats and the registry
    /// never take it.
    pub commit: Arc<GroupCommitVfs>,
}

/// The set of live tenants plus the budget math over them.
#[derive(Debug)]
pub struct TenantRegistry {
    root: PathBuf,
    base_vfs: Arc<dyn Vfs>,
    global_budget: usize,
    profile: EngineProfile,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// A registry over `root`, opening tenant engines on `base_vfs` with
    /// `profile`, apportioning `global_budget` resident bytes.
    pub fn new(
        root: PathBuf,
        base_vfs: Arc<dyn Vfs>,
        profile: EngineProfile,
        global_budget: usize,
    ) -> TenantRegistry {
        TenantRegistry {
            root,
            base_vfs,
            global_budget,
            profile,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured global resident-byte budget.
    pub fn global_budget(&self) -> usize {
        self.global_budget
    }

    /// The per-tenant budget share at `n` live tenants (the whole
    /// budget when none are).
    pub fn share_at(&self, n: usize) -> usize {
        self.global_budget.checked_div(n).unwrap_or(self.global_budget)
    }

    fn lock_tenants(
        &self,
    ) -> Result<std::sync::MutexGuard<'_, BTreeMap<String, Arc<Tenant>>>, ServerError> {
        self.tenants.lock().map_err(|_| ServerError::Engine(logr::Error::Poisoned))
    }

    /// The tenant's engine, opening (and locking) its store on first use.
    ///
    /// `source` is the request's `"source"` field: it selects the
    /// featurizer when this call **creates** the tenant's store. On an
    /// already-open tenant — or a store resumed from disk, where the
    /// manifest's stored source always wins — a mismatching explicit
    /// `source` is a protocol error rather than a silent ignore.
    ///
    /// Opening a new tenant re-apportions the global budget over the
    /// grown tenant set before returning.
    pub fn get_or_open(
        &self,
        name: &str,
        source: Option<SourceConfig>,
    ) -> Result<Arc<Tenant>, ServerError> {
        validate_name(name)?;
        let mut tenants = self.lock_tenants()?;
        if let Some(t) = tenants.get(name) {
            Self::check_source(name, t.engine.source()?, source)?;
            return Ok(t.clone());
        }
        let share = self.share_at(tenants.len() + 1);
        let dir = self.root.join(name);
        let commit = Arc::new(GroupCommitVfs::new(self.base_vfs.clone(), &dir));
        let engine = Engine::builder()
            .window(self.profile.window)
            .clusters(self.profile.clusters)
            .seed(self.profile.seed)
            .source(source.unwrap_or(self.profile.source))
            .resident_budget(share)
            .vfs(commit.clone() as Arc<dyn Vfs>)
            .open(dir)?;
        // A resumed store keeps its manifest's source; dropping the
        // engine here releases the store lock before we report the
        // conflict.
        if let Err(e) = Self::check_source(name, engine.source()?, source) {
            drop(engine);
            return Err(e);
        }
        let tenant = Arc::new(Tenant { name: name.to_owned(), engine, commit });
        tenants.insert(name.to_owned(), tenant.clone());
        Self::apportion(&tenants, share)?;
        Ok(tenant)
    }

    /// Closes a tenant: flushes its deferred fsyncs for good (see
    /// [`GroupCommitVfs::close`]), releases its engine (and store lock),
    /// and returns its budget share to the survivors.
    pub fn close(&self, name: &str) -> Result<(), ServerError> {
        validate_name(name)?;
        let tenant = {
            let mut tenants = self.lock_tenants()?;
            let tenant = tenants
                .remove(name)
                .ok_or_else(|| protocol(format!("tenant \"{name}\" is not open")))?;
            let share = self.share_at(tenants.len().max(1));
            Self::apportion(&tenants, share)?;
            tenant
        };
        // Flush outside the registry lock: a slow disk must not block
        // other tenants opening/closing.
        tenant.commit.close().map_err(|e| ServerError::Engine(logr::Error::from(e)))?;
        Ok(())
    }

    /// Every live tenant, in name order.
    pub fn list(&self) -> Result<Vec<Arc<Tenant>>, ServerError> {
        Ok(self.lock_tenants()?.values().cloned().collect())
    }

    /// The per-tenant budget share over the tenants live right now.
    pub fn share(&self) -> Result<usize, ServerError> {
        Ok(self.share_at(self.lock_tenants()?.len()))
    }

    /// Errors when a request's explicit source disagrees with the source
    /// the tenant's engine actually runs.
    fn check_source(
        name: &str,
        actual: SourceConfig,
        requested: Option<SourceConfig>,
    ) -> Result<(), ServerError> {
        match requested {
            Some(requested) if requested != actual => Err(protocol(format!(
                "tenant \"{name}\" runs source {actual:?} but the request asked for {requested:?}"
            ))),
            _ => Ok(()),
        }
    }

    fn apportion(tenants: &BTreeMap<String, Arc<Tenant>>, share: usize) -> Result<(), ServerError> {
        for tenant in tenants.values() {
            tenant.engine.set_resident_budget(share)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_rejects_traversal_and_separators() {
        for ok in ["a", "tenant-1", "A_b-C", &"x".repeat(64)] {
            assert!(validate_name(ok).is_ok(), "rejected {ok:?}");
        }
        for bad in ["", "..", "a/b", "a\\b", ".", "a.b", "a b", "é", &"x".repeat(65)] {
            assert!(validate_name(bad).is_err(), "accepted {bad:?}");
        }
    }
}
