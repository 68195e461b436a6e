//! The immutable, versioned model registry.
//!
//! Serving never mutates a model: publishing a name again creates a new
//! monotonically-numbered version alongside the old one, and in-flight
//! queries keep their `Arc` pin on whichever version they resolved, so
//! eviction is safe at any time. Versions start at 1; version 0 in the
//! query API means "latest".

use splatt_core::KruskalModel;
use splatt_rt::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One published model version, immutable once registered.
#[derive(Debug)]
pub struct ServableModel {
    /// Registry name the model was published under.
    pub name: String,
    /// Monotonic version within that name, starting at 1.
    pub version: u64,
    /// The Kruskal payload queries are answered from.
    pub model: KruskalModel,
}

/// Summary row for registry listings (and the wire `List` response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    pub name: String,
    pub version: u64,
    pub order: u64,
    pub rank: u64,
}

#[derive(Default)]
struct RegistryInner {
    /// Versions kept ascending; the name's next version counter survives
    /// eviction so re-publishing never reuses a number.
    models: HashMap<String, (u64, Vec<Arc<ServableModel>>)>,
}

/// Thread-safe registry of [`ServableModel`]s; see the module docs.
#[derive(Default)]
pub struct ModelRegistry {
    inner: Mutex<RegistryInner>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Publish `model` under `name`, returning the version it received.
    pub fn publish(&self, name: &str, model: KruskalModel) -> u64 {
        let mut inner = self.inner.lock();
        let (next, versions) = inner
            .models
            .entry(name.to_string())
            .or_insert_with(|| (1, Vec::new()));
        let version = *next;
        *next += 1;
        versions.push(Arc::new(ServableModel {
            name: name.to_string(),
            version,
            model,
        }));
        version
    }

    /// Publish the model stored at `path` (any format
    /// [`splatt_core::load_model_path`] sniffs, including the CRC-framed
    /// artifacts the durability layer writes) under `name`.
    ///
    /// The file is read, checksum-verified, and parsed entirely
    /// *outside* the registry lock, so republishing a refreshed model
    /// never blocks in-flight queries: readers see the old latest until
    /// the one `publish` call at the end swaps in the new version.
    ///
    /// # Errors
    /// Propagates load failures (torn/corrupt files surface as typed
    /// `InvalidData` errors from the store layer, never a wrong model).
    pub fn publish_path(&self, name: &str, path: &std::path::Path) -> std::io::Result<u64> {
        let model = splatt_core::load_model_path(path)?;
        Ok(self.publish(name, model))
    }

    /// Resolve `name` at `version` (0 = latest).
    pub fn get(&self, name: &str, version: u64) -> Option<Arc<ServableModel>> {
        let inner = self.inner.lock();
        let (_, versions) = inner.models.get(name)?;
        if version == 0 {
            versions.last().cloned()
        } else {
            versions.iter().find(|m| m.version == version).cloned()
        }
    }

    /// True when the exact `name`@`version` is still published.
    pub fn contains(&self, name: &str, version: u64) -> bool {
        let inner = self.inner.lock();
        inner
            .models
            .get(name)
            .is_some_and(|(_, versions)| versions.iter().any(|m| m.version == version))
    }

    /// Evict one version (or every version when `version == 0`) of
    /// `name`, returning how many were removed. In-flight queries that
    /// already resolved the model keep serving from their pin.
    pub fn evict(&self, name: &str, version: u64) -> usize {
        let mut inner = self.inner.lock();
        let Some((_, versions)) = inner.models.get_mut(name) else {
            return 0;
        };
        let before = versions.len();
        if version == 0 {
            versions.clear();
        } else {
            versions.retain(|m| m.version != version);
        }
        // The name's entry (and its version counter) survives even when
        // every version is gone, so re-publishing never reuses a number.
        before - versions.len()
    }

    /// Every live version, sorted by name then version.
    pub fn list(&self) -> Vec<ModelInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<ModelInfo> = inner
            .models
            .values()
            .flat_map(|(_, versions)| versions.iter())
            .map(|m| ModelInfo {
                name: m.name.clone(),
                version: m.version,
                order: m.model.order() as u64,
                rank: m.model.rank() as u64,
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name).then(a.version.cmp(&b.version)));
        out
    }

    /// Number of live model versions.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .models
            .values()
            .map(|(_, v)| v.len())
            .sum()
    }

    /// True when nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_dense::Matrix;

    fn model(seed: u64) -> KruskalModel {
        KruskalModel {
            lambda: vec![1.0, 2.0],
            factors: vec![Matrix::random(3, 2, seed), Matrix::random(4, 2, seed + 1)],
        }
    }

    #[test]
    fn versions_are_monotonic_and_latest_wins() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.publish("m", model(1)), 1);
        assert_eq!(reg.publish("m", model(2)), 2);
        assert_eq!(reg.get("m", 0).unwrap().version, 2);
        assert_eq!(reg.get("m", 1).unwrap().version, 1);
        assert!(reg.get("m", 3).is_none());
        assert!(reg.get("other", 0).is_none());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn eviction_keeps_pins_alive_and_counter_monotonic() {
        let reg = ModelRegistry::new();
        reg.publish("m", model(1));
        let pinned = reg.get("m", 1).unwrap();
        assert_eq!(reg.evict("m", 1), 1);
        assert!(reg.get("m", 1).is_none());
        assert_eq!(pinned.model.rank(), 2, "pin still serves after evict");
        // Re-publish gets a fresh version, not a recycled 1.
        assert_eq!(reg.publish("m", model(3)), 2);
        assert_eq!(reg.evict("m", 0), 1);
        assert_eq!(reg.evict("m", 0), 0);
        assert_eq!(reg.evict("ghost", 0), 0);
    }

    #[test]
    fn publish_path_loads_framed_artifacts_and_rejects_torn_ones() {
        let dir = std::env::temp_dir().join("splatt_registry_publish_path");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.splatt");
        splatt_core::save_model_path(&model(5), &path, 1).unwrap();

        let reg = ModelRegistry::new();
        assert_eq!(reg.publish_path("m", &path).unwrap(), 1);
        assert_eq!(reg.get("m", 0).unwrap().model.rank(), 2);

        // A refreshed model republished from disk becomes the new
        // latest while an old pin keeps serving.
        let pinned = reg.get("m", 1).unwrap();
        splatt_core::save_model_path(&model(9), &path, 2).unwrap();
        assert_eq!(reg.publish_path("m", &path).unwrap(), 2);
        assert_eq!(reg.get("m", 0).unwrap().version, 2);
        assert_eq!(pinned.model.rank(), 2, "pin unaffected by republish");

        // A torn artifact must fail typed and leave the registry as-is.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(reg.publish_path("m", &path).is_err());
        assert_eq!(reg.get("m", 0).unwrap().version, 2, "registry unchanged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_is_sorted() {
        let reg = ModelRegistry::new();
        reg.publish("b", model(1));
        reg.publish("a", model(2));
        reg.publish("a", model(3));
        let names: Vec<(String, u64)> = reg
            .list()
            .into_iter()
            .map(|i| (i.name, i.version))
            .collect();
        assert_eq!(
            names,
            vec![("a".into(), 1), ("a".into(), 2), ("b".into(), 1)]
        );
    }
}
