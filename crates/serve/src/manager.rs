//! The backend registry: named, versioned `dyn` backends behind an
//! immutable snapshot table.
//!
//! ## Snapshot discipline
//!
//! The whole registry state lives in one immutable [`ManagerSnapshot`]
//! behind an `Arc`; mutations build a fresh table and swap the `Arc`
//! (copy-on-write — entries themselves are shared, only the index is
//! rebuilt). A predict path takes **one snapshot per request** (one per
//! batch in the batching queue) and resolves everything against it, the
//! same discipline the partition maps use: an alias flip concurrent with
//! a request can never be observed mid-request, so no request is ever
//! served by a half-swapped model.
//!
//! ## Swap protocol
//!
//! Upgrading a backend is three steps, each atomic on the snapshot:
//!
//! 1. `register("m", v2_backend)` — the new version is retained but NOT
//!    serving; the alias still points at v1.
//! 2. `flip_alias("m", v2)` — one pointer swap; requests that already
//!    hold a snapshot finish on v1, new snapshots resolve v2.
//! 3. `retire("m", v1)` — drops the old version (refused while it still
//!    holds the alias).
//!
//! Rollback is just `flip_alias` back to a retained version.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use velox_models::RegistryError;

use crate::backend::{BackendMeta, PredictBackend};
use crate::error::ServeError;

/// One registered backend version.
#[derive(Clone)]
pub struct BackendEntry {
    /// Registered name.
    pub name: String,
    /// Manager-assigned version (1-based, monotone per name).
    pub version: u64,
    /// The backend object.
    pub backend: Arc<dyn PredictBackend>,
}

impl BackendEntry {
    /// Static description of the entry's backend.
    pub fn meta(&self) -> BackendMeta {
        self.backend.meta()
    }
}

impl std::fmt::Debug for BackendEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendEntry")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("kind", &self.backend.meta().kind)
            .finish()
    }
}

#[derive(Clone)]
struct Lineage {
    versions: BTreeMap<u64, Arc<BackendEntry>>,
    serving: u64,
    next_version: u64,
}

/// An immutable point-in-time view of the registry. Cheap to clone
/// (one `Arc` bump); every resolution against one snapshot is mutually
/// consistent.
#[derive(Clone)]
pub struct ManagerSnapshot {
    lineages: Arc<HashMap<String, Lineage>>,
}

impl ManagerSnapshot {
    /// The serving entry for `name` (the version the alias points at).
    pub fn resolve(&self, name: &str) -> Result<Arc<BackendEntry>, ServeError> {
        let lin =
            self.lineages.get(name).ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        lin.versions
            .get(&lin.serving)
            .cloned()
            .ok_or_else(|| ServeError::Registry(RegistryError::UnknownModel(name.to_string())))
    }

    /// A specific retained version of `name`.
    pub fn resolve_version(
        &self,
        name: &str,
        version: u64,
    ) -> Result<Arc<BackendEntry>, ServeError> {
        let lin =
            self.lineages.get(name).ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        lin.versions.get(&version).cloned().ok_or_else(|| {
            ServeError::Registry(RegistryError::VersionNotRetained {
                name: name.to_string(),
                version,
            })
        })
    }

    /// Whether `name` is registered.
    pub fn has(&self, name: &str) -> bool {
        self.lineages.contains_key(name)
    }

    /// All registered names, sorted (a deterministic listing order).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lineages.keys().cloned().collect();
        names.sort();
        names
    }

    /// The serving version of `name`.
    pub fn serving_version(&self, name: &str) -> Result<u64, ServeError> {
        Ok(self
            .lineages
            .get(name)
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?
            .serving)
    }

    /// Retained versions of `name`, ascending.
    pub fn versions(&self, name: &str) -> Result<Vec<u64>, ServeError> {
        Ok(self
            .lineages
            .get(name)
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?
            .versions
            .keys()
            .copied()
            .collect())
    }
}

/// Thread-safe registry of named, versioned serving backends. Cloning
/// shares the registry (handles see each other's mutations).
#[derive(Clone, Default)]
pub struct ModelManager {
    table: Arc<Mutex<Option<ManagerSnapshot>>>,
}

impl ModelManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current snapshot. Take exactly one per request (or batch) and
    /// resolve everything against it.
    pub fn snapshot(&self) -> ManagerSnapshot {
        let guard = self.table.lock().unwrap();
        match guard.as_ref() {
            Some(snap) => snap.clone(),
            None => ManagerSnapshot { lineages: Arc::new(HashMap::new()) },
        }
    }

    fn mutate<R>(
        &self,
        f: impl FnOnce(&mut HashMap<String, Lineage>) -> Result<R, ServeError>,
    ) -> Result<R, ServeError> {
        let mut guard = self.table.lock().unwrap();
        let mut lineages = match guard.as_ref() {
            Some(snap) => (*snap.lineages).clone(),
            None => HashMap::new(),
        };
        let out = f(&mut lineages)?;
        *guard = Some(ManagerSnapshot { lineages: Arc::new(lineages) });
        Ok(out)
    }

    /// Registers a backend under `name` and returns the assigned version.
    /// A new name starts serving immediately at version 1; an existing
    /// name retains the new version WITHOUT flipping the serving alias —
    /// that is [`ModelManager::flip_alias`]'s job (step 1 of the swap
    /// protocol).
    pub fn register(
        &self,
        name: &str,
        backend: Arc<dyn PredictBackend>,
    ) -> Result<u64, ServeError> {
        self.mutate(|lineages| match lineages.get_mut(name) {
            Some(lin) => {
                let version = lin.next_version;
                lin.next_version += 1;
                let entry = BackendEntry { name: name.to_string(), version, backend };
                lin.versions.insert(version, Arc::new(entry));
                Ok(version)
            }
            None => {
                let entry = BackendEntry { name: name.to_string(), version: 1, backend };
                let mut versions = BTreeMap::new();
                versions.insert(1, Arc::new(entry));
                lineages
                    .insert(name.to_string(), Lineage { versions, serving: 1, next_version: 2 });
                Ok(1)
            }
        })
    }

    /// Registers a backend under a name that must NOT already exist —
    /// "create", not "create a version"; a taken name is refused with
    /// [`RegistryError::DuplicateModel`].
    pub fn register_new(
        &self,
        name: &str,
        backend: Arc<dyn PredictBackend>,
    ) -> Result<u64, ServeError> {
        self.mutate(|lineages| {
            if lineages.contains_key(name) {
                return Err(RegistryError::DuplicateModel(name.to_string()).into());
            }
            let entry = BackendEntry { name: name.to_string(), version: 1, backend };
            let mut versions = BTreeMap::new();
            versions.insert(1, Arc::new(entry));
            lineages.insert(name.to_string(), Lineage { versions, serving: 1, next_version: 2 });
            Ok(1)
        })
    }

    /// Atomically points the serving alias of `name` at a retained
    /// `version` (step 2 of the swap protocol; also the rollback path).
    /// Returns the previously serving version.
    pub fn flip_alias(&self, name: &str, version: u64) -> Result<u64, ServeError> {
        self.mutate(|lineages| {
            let lin = lineages
                .get_mut(name)
                .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
            if !lin.versions.contains_key(&version) {
                return Err(
                    RegistryError::VersionNotRetained { name: name.to_string(), version }.into()
                );
            }
            let prev = lin.serving;
            lin.serving = version;
            Ok(prev)
        })
    }

    /// Drops a retained `version` of `name` (step 3 of the swap
    /// protocol). Refused while the version holds the serving alias.
    pub fn retire(&self, name: &str, version: u64) -> Result<(), ServeError> {
        self.mutate(|lineages| {
            let lin = lineages
                .get_mut(name)
                .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
            if !lin.versions.contains_key(&version) {
                return Err(
                    RegistryError::VersionNotRetained { name: name.to_string(), version }.into()
                );
            }
            if lin.serving == version {
                return Err(ServeError::RetireServing { name: name.to_string(), version });
            }
            lin.versions.remove(&version);
            Ok(())
        })
    }

    /// Removes a name and every retained version. Returns whether it
    /// existed.
    pub fn remove(&self, name: &str) -> bool {
        self.mutate(|lineages| Ok(lineages.remove(name).is_some())).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CustomScorer;
    use velox_core::Item;

    fn constant(v: f64) -> Arc<dyn PredictBackend> {
        Arc::new(CustomScorer::from_fn(move |_, _| Ok(v)))
    }

    fn score(snap: &ManagerSnapshot, name: &str) -> f64 {
        snap.resolve(name).unwrap().backend.predict_one(0, &Item::Id(0)).unwrap().score
    }

    #[test]
    fn swap_protocol_register_flip_retire() {
        let mgr = ModelManager::new();
        assert_eq!(mgr.register("m", constant(1.0)).unwrap(), 1);
        // A snapshot taken before the upgrade keeps serving v1 throughout.
        let before = mgr.snapshot();
        assert_eq!(mgr.register("m", constant(2.0)).unwrap(), 2);
        assert_eq!(score(&mgr.snapshot(), "m"), 1.0, "register must not flip the alias");
        assert_eq!(mgr.flip_alias("m", 2).unwrap(), 1);
        assert_eq!(score(&mgr.snapshot(), "m"), 2.0);
        assert_eq!(score(&before, "m"), 1.0, "old snapshot is immutable");
        // Retiring the serving version is refused; the old one drops fine.
        assert_eq!(
            mgr.retire("m", 2).unwrap_err(),
            ServeError::RetireServing { name: "m".into(), version: 2 }
        );
        mgr.retire("m", 1).unwrap();
        assert_eq!(mgr.snapshot().versions("m").unwrap(), vec![2]);
    }

    #[test]
    fn typed_errors_for_unknown_and_duplicate() {
        let mgr = ModelManager::new();
        assert_eq!(
            mgr.snapshot().resolve("ghost").unwrap_err(),
            ServeError::Registry(RegistryError::UnknownModel("ghost".into()))
        );
        mgr.register_new("m", constant(1.0)).unwrap();
        assert_eq!(
            mgr.register_new("m", constant(2.0)).unwrap_err(),
            ServeError::Registry(RegistryError::DuplicateModel("m".into()))
        );
        assert_eq!(
            mgr.flip_alias("m", 9).unwrap_err(),
            ServeError::Registry(RegistryError::VersionNotRetained {
                name: "m".into(),
                version: 9
            })
        );
        assert_eq!(
            mgr.flip_alias("ghost", 1).unwrap_err(),
            ServeError::Registry(RegistryError::UnknownModel("ghost".into()))
        );
        assert!(mgr.remove("m"));
        assert!(!mgr.remove("m"));
    }
}
