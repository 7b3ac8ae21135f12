//! REST tracing surface: `/cluster/*` responses carry a `trace_id`,
//! `GET /trace/<id>` reassembles the span tree rooted at the REST
//! ingress, and `GET /traces/slow` indexes kept traces.

use std::sync::Arc;

use velox_net::{NetCluster, NetClusterConfig};
use velox_obs::TraceConfig;
use velox_rest::client::VeloxClient;
use velox_rest::json::Json;
use velox_rest::server::{RestHandle, RestServer};
use velox_serve::ServeTier;

const DIM: usize = 3;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 5) as f64 / 4.0).collect()
}

fn start_traced_rest() -> (RestHandle, VeloxClient) {
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        wal_root: None,
        workers: 8,
        trace: TraceConfig::sample_all(),
        ..Default::default()
    })
    .expect("start traced cluster");
    net.publish_item_features((0..16u64).map(|i| (i, item_features(i))).collect());
    let handle = RestServer::new(Arc::new(ServeTier::new()))
        .with_cluster(Arc::new(net))
        .serve("127.0.0.1:0")
        .expect("serve");
    let client = VeloxClient::new(handle.addr(), "unused");
    (handle, client)
}

fn kind_of(node: &Json) -> &str {
    node.get("kind").and_then(Json::as_str).unwrap_or("?")
}

#[test]
fn predict_returns_trace_id_and_trace_endpoint_reassembles_the_tree() {
    let (_handle, client) = start_traced_rest();
    client.cluster_observe(7, 3, 1.0).expect("observe");
    let p = client.cluster_predict(7, 3).expect("predict");
    let trace_id = p.trace_id.expect("sample_all: every request carries a trace id");
    assert_eq!(trace_id.len(), 16, "trace ids are zero-padded 16-hex strings");

    let trace = client.trace(&trace_id).expect("GET /trace/<id>");
    assert_eq!(trace.get("trace_id").and_then(Json::as_str), Some(trace_id.as_str()));
    let span_count = trace.get("span_count").and_then(Json::as_u64).unwrap() as usize;
    assert!(span_count >= 4, "expected rest→cluster→rpc→server→node chain, got {span_count}");

    // The reassembled tree is rooted at the REST ingress span, with the
    // cluster predict span directly beneath it.
    let tree = trace.get("tree").and_then(Json::as_array).expect("tree array");
    assert_eq!(tree.len(), 1, "one root");
    let root = &tree[0];
    assert_eq!(kind_of(root), "rest_request");
    assert_eq!(root.get("node").and_then(Json::as_str), Some("front"));
    let children = root.get("children").and_then(Json::as_array).expect("children");
    assert!(children.iter().any(|c| kind_of(c) == "cluster_predict"), "missing cluster_predict");
}

#[test]
fn observe_trace_reaches_the_replica_through_rest() {
    let (_handle, client) = start_traced_rest();
    let o = client.cluster_observe(4, 2, 1.0).expect("observe");
    let trace_id = o.trace_id.expect("trace id");
    let trace = client.trace(&trace_id).expect("GET /trace/<id>");
    let spans = trace.get("spans").and_then(Json::as_array).expect("spans");
    let kinds: Vec<&str> = spans.iter().map(kind_of).collect();
    for want in ["rest_request", "cluster_observe", "rpc_call", "server_recv", "node_observe"] {
        assert!(kinds.contains(&want), "missing {want} in {kinds:?}");
    }
    assert!(kinds.contains(&"ship_replica"), "replication on: expected a ship hop in {kinds:?}");
}

#[test]
fn slow_traces_lists_kept_traces_and_unknown_ids_are_404() {
    let (_handle, client) = start_traced_rest();
    let p = client.cluster_predict(11, 1).expect("predict");
    let slow = client.slow_traces().expect("GET /traces/slow");
    let traces = slow.get("traces").and_then(Json::as_array).expect("traces array");
    assert!(!traces.is_empty(), "sample_all keeps every trace");
    let ids: Vec<&str> =
        traces.iter().filter_map(|t| t.get("trace_id").and_then(Json::as_str)).collect();
    assert!(ids.contains(&p.trace_id.as_deref().unwrap()), "kept index must list the request");
    for t in traces {
        let reason = t.get("reason").and_then(Json::as_str).unwrap();
        assert!(reason == "head_sampled" || reason == "slow", "unexpected reason {reason}");
    }

    // A well-formed but never-issued id is a 404, not a 500 or empty 200.
    let err = client.trace("00000000000000ff").unwrap_err();
    assert!(
        matches!(err, velox_rest::client::ClientError::Server { status: 404, .. }),
        "expected 404, got {err:?}"
    );
}
