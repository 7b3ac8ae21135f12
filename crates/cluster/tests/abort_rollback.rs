//! The shared control-plane property suite, run against the simulator.
//!
//! The properties live in `common/control_plane_props.rs` and are written
//! against `ControlPlane` + `Transport`; `velox-net` instantiates the same
//! suite for the socket runtime. This file supplies the simulator's
//! fixture, plus the one refusal only the simulator has (its kill switch
//! gates operator migrations too).

use std::sync::Arc;

use velox_cluster::transport::{SimTransport, Transport};
use velox_cluster::{ChaosControl, Cluster, ClusterConfig, ControlPlane, MembershipError, NodeId};

#[macro_use]
#[path = "common/control_plane_props.rs"]
mod props;

struct SimTwin {
    cluster: Arc<Cluster>,
    sim: SimTransport,
}

impl props::Twin for SimTwin {
    type Plane = Cluster;

    fn build() -> Self {
        let cluster = Arc::new(Cluster::new(ClusterConfig {
            n_nodes: 3,
            max_nodes: 4,
            user_replication: 2,
            item_replication: 3,
            // Small chunks so a real migration takes several boundary checks.
            checkpoint_chunk_users: 4,
            ..Default::default()
        }));
        for item in 0..props::ITEMS {
            cluster.put_item_features(item, props::features(item));
        }
        let sim = SimTransport::new(Arc::clone(&cluster), 0.0);
        SimTwin { cluster, sim }
    }

    fn plane(&self) -> &Cluster {
        &self.cluster
    }

    fn transport(&self) -> &dyn Transport {
        &self.sim
    }

    fn join(&self) -> NodeId {
        self.cluster.join_node().expect("join")
    }

    fn kill(&self, node: NodeId) {
        self.cluster.kill_node(node);
    }

    /// The simulator's transfer is synchronous: it cannot wait a cut link
    /// out, so the cut itself is the abort.
    fn jam_checkpoint_link(&self, src: NodeId, dst: NodeId) -> &'static str {
        self.sim.link_chaos().partition_both(src as u32, dst as u32);
        "checkpoint link partitioned"
    }

    fn heal_links(&self) {
        self.sim.link_chaos().heal_all();
    }
}

control_plane_suite!(SimTwin);

#[test]
fn kill_switch_refuses_operator_migrations_until_re_enabled() {
    let c = <SimTwin as props::Twin>::build().cluster;
    c.set_rebalance_enabled(false);
    assert!(matches!(c.migrate_partition(0, 1), Err(MembershipError::RebalanceDisabled)));
    assert!(matches!(c.rebalance_join(1), Err(MembershipError::RebalanceDisabled)));
    c.set_rebalance_enabled(true);
    let joined = c.join_node().expect("join");
    let moved = c.rebalance_join(joined).expect("rebalance after re-enable");
    assert!(!moved.is_empty());
}
