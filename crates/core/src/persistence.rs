//! Deployment snapshot & restore.
//!
//! Velox persists its model state through the storage layer (Tachyon in
//! the paper, §3); our substitute is in-memory, so durability is provided
//! by explicit snapshots: the serving-relevant tables — user weights, the
//! materialized item-feature table, and the raw-attribute catalog — encode
//! to the compact binary format of `velox_storage::codec`. The blobs are
//! opaque bytes the operator can ship to any object store; restore rebuilds
//! a serving-equivalent deployment from them.
//!
//! What a snapshot does **not** contain: per-user online sufficient
//! statistics (recreated lazily from the restored weights as priors, the
//! same path a retrain swap uses) and the observation log (whose system of
//! record in the paper is the storage/batch layer, not the serving tier).

use std::collections::HashMap;
use std::sync::Arc;
use velox_storage::bytes::Bytes;

use velox_linalg::Vector;
use velox_models::VeloxModel;
use velox_storage::codec::{decode_vector_table, encode_vector_table};

use crate::config::VeloxConfig;
use crate::error::VeloxError;
use crate::velox::Velox;

/// A serialized deployment: three independent binary blobs plus metadata.
#[derive(Debug, Clone)]
pub struct DeploymentSnapshot {
    /// Model version at snapshot time.
    pub model_version: u64,
    /// Encoded user-weight table.
    pub user_weights: Bytes,
    /// Encoded materialized item-feature table (empty table for
    /// computational models).
    pub item_table: Bytes,
    /// Encoded raw-attribute catalog (for computational feature functions).
    pub catalog: Bytes,
}

impl DeploymentSnapshot {
    /// Total serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.user_weights.len() + self.item_table.len() + self.catalog.len()
    }
}

impl Velox {
    /// Captures a restorable snapshot of the deployment's serving state.
    pub fn snapshot(&self) -> DeploymentSnapshot {
        let user_weights: Vec<(u64, Vec<f64>)> =
            self.user_weight_table().into_iter().map(|(uid, w)| (uid, w.to_vec())).collect();
        let item_table = self.current_model().materialized_table();
        let catalog = self.catalog_entries();
        DeploymentSnapshot {
            model_version: self.model_version(),
            user_weights: encode_vector_table(&user_weights),
            item_table: encode_vector_table(&item_table),
            catalog: encode_vector_table(&catalog),
        }
    }

    /// Rebuilds a deployment from a snapshot. The model object itself is
    /// supplied by the caller (for materialized models, rebuild it from
    /// `snapshot.item_table` via `MatrixFactorizationModel::from_table`;
    /// computational models carry their θ internally and are
    /// reconstructible from their own constructor parameters).
    pub fn restore(
        model: Arc<dyn VeloxModel>,
        snapshot: &DeploymentSnapshot,
        config: VeloxConfig,
    ) -> Result<Velox, VeloxError> {
        let weights: HashMap<u64, Vector> = decode_vector_table(snapshot.user_weights.clone())?
            .into_iter()
            .map(|(uid, w)| (uid, Vector::from_vec(w)))
            .collect();
        // The item table is the caller's input to the model constructor,
        // but a snapshot is restored as a unit: validate the blob here so
        // a torn or corrupted snapshot is rejected atomically instead of
        // producing a deployment that fails later.
        let _ = decode_vector_table(snapshot.item_table.clone())?;
        let velox = Velox::deploy(model, weights, config);
        velox.force_version(snapshot.model_version);
        for (item, attrs) in decode_vector_table(snapshot.catalog.clone())? {
            velox.register_item(item, attrs);
        }
        Ok(velox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velox_bandit as _;
    use velox_batch::AlsConfig;
    use velox_models::{IdentityModel, Item, MatrixFactorizationModel};

    fn mf_deployment() -> Velox {
        let mut table = HashMap::new();
        for item in 0..30u64 {
            table.insert(
                item,
                Vector::from_vec(vec![(item as f64 * 0.3).sin(), (item as f64 * 0.7).cos()]),
            );
        }
        let model = MatrixFactorizationModel::from_table(
            "snap",
            table,
            3.0,
            AlsConfig { rank: 2, ..Default::default() },
        )
        .unwrap();
        let mut weights = HashMap::new();
        for uid in 0..10u64 {
            weights.insert(uid, Vector::from_vec(vec![uid as f64 * 0.1, -(uid as f64) * 0.05]));
        }
        Velox::deploy(Arc::new(model), weights, VeloxConfig::single_node())
    }

    #[test]
    fn mf_snapshot_round_trips_predictions() {
        let original = mf_deployment();
        // Mutate some state so the snapshot isn't just the deploy inputs.
        original.observe(3, &Item::Id(5), 2.0).unwrap();
        original.observe(7, &Item::Id(9), -1.0).unwrap();
        let snap = original.snapshot();
        assert!(snap.size_bytes() > 0);
        assert_eq!(snap.model_version, 1);
        // Restored deployments report the snapshot's version, not 1.

        // Rebuild the model from the snapshotted item table.
        let table: HashMap<u64, Vector> = decode_vector_table(snap.item_table.clone())
            .unwrap()
            .into_iter()
            .map(|(id, v)| (id, Vector::from_vec(v)))
            .collect();
        let model = MatrixFactorizationModel::from_table(
            "snap",
            table,
            3.0,
            AlsConfig { rank: 2, ..Default::default() },
        )
        .unwrap();
        let restored = Velox::restore(Arc::new(model), &snap, VeloxConfig::single_node()).unwrap();
        assert_eq!(restored.model_version(), snap.model_version);

        for uid in 0..10u64 {
            for item in 0..30u64 {
                let a = original.predict(uid, &Item::Id(item)).unwrap().score;
                let b = restored.predict(uid, &Item::Id(item)).unwrap().score;
                assert!((a - b).abs() < 1e-12, "uid {uid} item {item}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn computed_model_snapshot_round_trips_catalog() {
        let model = IdentityModel::new("snap-id", 2, 0.5);
        let original =
            Velox::deploy(Arc::new(model.clone()), HashMap::new(), VeloxConfig::single_node());
        for item in 0..15u64 {
            original.register_item(item, vec![item as f64, 1.0 / (item as f64 + 1.0)]);
        }
        original.observe(1, &Item::Id(4), 2.5).unwrap();
        let snap = original.snapshot();
        let restored = Velox::restore(Arc::new(model), &snap, VeloxConfig::single_node()).unwrap();
        for item in 0..15u64 {
            let a = original.predict(1, &Item::Id(item)).unwrap().score;
            let b = restored.predict(1, &Item::Id(item)).unwrap().score;
            assert!((a - b).abs() < 1e-12);
        }
        // The computed model's snapshot has an empty item table but a
        // populated catalog.
        assert!(decode_vector_table(snap.item_table.clone()).unwrap().is_empty());
        assert_eq!(decode_vector_table(snap.catalog.clone()).unwrap().len(), 15);
    }

    #[test]
    fn restore_rejects_corrupt_blobs() {
        let original = mf_deployment();
        let mut snap = original.snapshot();
        snap.user_weights = Bytes::from_static(b"not a snapshot");
        let model = IdentityModel::new("x", 2, 0.5);
        assert!(matches!(
            Velox::restore(Arc::new(model), &snap, VeloxConfig::single_node()),
            Err(VeloxError::Storage(_))
        ));
    }

    /// Restoring with `model` against `snap` must produce a clean error —
    /// never a panic, never a silently-partial deployment.
    fn assert_restore_rejects(snap: &DeploymentSnapshot, what: &str) {
        let model = IdentityModel::new("x", 2, 0.5);
        match Velox::restore(Arc::new(model), snap, VeloxConfig::single_node()) {
            Err(_) => {}
            Ok(_) => panic!("restore accepted a damaged snapshot: {what}"),
        }
    }

    /// Crash consistency: a snapshot torn at *any* byte boundary, or with
    /// targeted corruption (bad magic, bad tag, inflated count), is
    /// rejected with a `VeloxError` for every one of the three blobs.
    #[test]
    fn restore_survives_torn_and_corrupt_snapshots() {
        let original = mf_deployment();
        original.observe(3, &Item::Id(5), 2.0).unwrap();
        let snap = original.snapshot();

        let blobs: [(&str, &Bytes); 3] = [
            ("user_weights", &snap.user_weights),
            ("item_table", &snap.item_table),
            ("catalog", &snap.catalog),
        ];
        for (name, blob) in blobs {
            // Truncation at every cut point simulates a crash mid-write.
            for cut in 0..blob.len() {
                let mut torn = snap.clone();
                let truncated = blob.slice(0..cut);
                match name {
                    "user_weights" => torn.user_weights = truncated,
                    "item_table" => torn.item_table = truncated,
                    _ => torn.catalog = truncated,
                }
                assert_restore_rejects(&torn, &format!("{name} truncated at {cut}"));
            }

            // Targeted corruption: flip the magic, the tag byte, and
            // inflate the element count past the data that follows.
            let corruptions: [(&str, usize, u8); 3] =
                [("magic", 0, 0xFF), ("tag", 4, 0xEE), ("count", 5, 0xFF)];
            for (kind, offset, value) in corruptions {
                let mut bytes = blob.as_slice().to_vec();
                if offset >= bytes.len() {
                    continue;
                }
                bytes[offset] = value;
                let mut corrupt = snap.clone();
                let damaged = Bytes::from(bytes);
                match name {
                    "user_weights" => corrupt.user_weights = damaged,
                    "item_table" => corrupt.item_table = damaged,
                    _ => corrupt.catalog = damaged,
                }
                assert_restore_rejects(&corrupt, &format!("{name} with corrupt {kind}"));
            }
        }
    }

    #[test]
    fn snapshot_reflects_online_updates() {
        let original = mf_deployment();
        let before = original.snapshot();
        original.observe(0, &Item::Id(0), 10.0).unwrap();
        let after = original.snapshot();
        assert_ne!(
            before.user_weights, after.user_weights,
            "weight mutation must be visible in the snapshot"
        );
        assert_eq!(before.item_table, after.item_table, "θ untouched by online updates");
    }
}
