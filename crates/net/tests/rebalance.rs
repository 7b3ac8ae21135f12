//! Elastic membership over real sockets: epoch-stamped partition maps,
//! live partition migration, and chaos fail-over.
//!
//! The acceptance gate for the membership plane is the control-plane
//! property suite the simulator also runs
//! (`crates/cluster/tests/common/control_plane_props.rs`), instantiated
//! here for `NetCluster` — the runtime that ships:
//!
//! - a node joins a serving cluster and takes partitions over with the
//!   chunk-stream / dual-write / catch-up / cut-over / tail-replay state
//!   machine, then a member is killed *and its disk wiped* and failed out
//!   of the map, losing **no acknowledged observe** and double-applying
//!   none — the final weights are bit-identical to a local replay of the
//!   ack stream;
//! - twin clusters fed the same workload through a join + rebalance
//!   converge to bit-identical weights at the same epoch;
//! - whatever aborts a migration, the rollback is bit-identical to never
//!   having tried; a racing cancel ends in a legal state; membership
//!   errors are typed; non-finite labels are refused without a trace.
//!
//! Plus the one socket-only protocol: a front with a stale map is
//! rejected with `WrongEpoch`, refreshes via `GetMap`, and retries —
//! at-most-once observes included.

use std::time::Duration;

use velox_cluster::transport::Transport;
use velox_cluster::{ChaosControl, ControlPlane, NodeId, FRONT_PEER};
use velox_net::{NetCluster, NetClusterConfig, Request, Response};
use velox_storage::ScratchDir;

#[macro_use]
#[path = "../../cluster/tests/common/control_plane_props.rs"]
mod props;

struct NetTwin {
    net: NetCluster,
    _wal: ScratchDir,
}

impl props::Twin for NetTwin {
    type Plane = NetCluster;

    fn build() -> Self {
        let wal = ScratchDir::new("control-plane-props");
        let net = NetCluster::start(NetClusterConfig {
            n_nodes: 3,
            max_nodes: 4,
            user_replication: 2,
            lr: props::LR,
            wal_root: Some(wal.path().to_path_buf()),
            workers: 8,
            request_timeout: Duration::from_secs(2),
            // One 4-dim entry is 44 B on the wire: a few users per chunk,
            // so a migration takes several boundary checks.
            checkpoint_chunk_bytes: 160,
            ..Default::default()
        })
        .expect("start loopback cluster");
        net.publish_item_features((0..props::ITEMS).map(|i| (i, props::features(i))).collect());
        NetTwin { net, _wal: wal }
    }

    fn plane(&self) -> &NetCluster {
        &self.net
    }

    fn transport(&self) -> &dyn Transport {
        &self.net
    }

    fn join(&self) -> NodeId {
        self.net.join_node().expect("join")
    }

    /// A kill here is a kill *and* a lost disk: only replicas' shipped
    /// logs can bring the node's partitions back.
    fn kill(&self, node: NodeId) {
        self.net.kill_node_lose_disk(node);
    }

    /// Over sockets a cut link is not an abort: the stream re-pulls the
    /// same cursor until the link heals. One that never heals runs into
    /// the migration deadline instead.
    fn jam_checkpoint_link(&self, src: NodeId, _dst: NodeId) -> &'static str {
        self.net.link_chaos().partition(FRONT_PEER, src as u32);
        self.net.set_migration_deadline(Some(Duration::from_millis(150)));
        "deadline exceeded"
    }

    fn heal_links(&self) {
        self.net.link_chaos().heal_all();
    }

    fn log_lens(&self) -> Vec<usize> {
        (0..3).map(|n| self.net.node_state(n).expect("live node").log_len()).collect()
    }
}

control_plane_suite!(NetTwin);

#[test]
fn stale_front_is_rejected_refreshes_and_retries() {
    let twin = <NetTwin as props::Twin>::build();
    props::apply(&twin, 0, 60);
    let net = &twin.net;
    let map0 = net.map();
    // Build a newer map behind the front's back and install it on the
    // nodes only — exactly what a second control plane (or an operator
    // tool) would do. Partition 0 gains its one non-replica member.
    let extra = *map0
        .members()
        .iter()
        .find(|&&m| !map0.replicas_of_partition(0).contains(&m))
        .expect("replication 2 of 3 leaves one non-replica");
    let map1 = map0.with_extra_replica(0, extra).expect("bump epoch");
    for node in 0..3 {
        let client = net.client(node).expect("live node");
        match client.call(&Request::InstallMap { map: map1.clone() }) {
            Ok(Response::Ok) => {}
            other => panic!("install on node {node} failed: {other:?}"),
        }
    }
    assert_eq!(net.map_epoch(), map0.epoch(), "front still on the stale epoch");

    // Every node now rejects the front's stamp; the front must refresh
    // once and serve — predicts and at-most-once observes both.
    net.predict(5, 2).expect("predict refreshes through WrongEpoch");
    net.observe(5, 2, 1.0).expect("observe refreshes through WrongEpoch");
    assert_eq!(net.map_epoch(), map1.epoch(), "front adopted the nodes' map");
    assert_eq!(net.map_refresh_count(), 1, "one rejection forced one refresh");
    let view = net.membership().expect("membership");
    assert!(view.wrong_epoch >= 1, "nodes counted the stale-epoch rejection");
    assert_eq!(view.epoch, map1.epoch());
}
