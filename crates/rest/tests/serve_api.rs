//! HTTP tests for the serving-tier routes: `GET /models` backend
//! listings, `POST /models/<name>/alias` flips, batched predict routing,
//! typed-registry-error surfacing as 400s, and the batched
//! `/cluster/predict` path.

use std::collections::HashMap;
use std::sync::Arc;

use velox_cluster::{Cluster, ClusterConfig, SimTransport};
use velox_core::{Velox, VeloxConfig};
use velox_models::IdentityModel;
use velox_rest::{ClientError, RestServer, VeloxClient};
use velox_serve::{CustomScorer, ServeTier, TransportBackend, VeloxBackend, CLUSTER_BACKEND};

fn serving_fixture() -> Arc<ServeTier> {
    let tier = Arc::new(ServeTier::new());

    // A Velox deployment registered as a tier backend: predicts route
    // through its lane, observes and stats through `ServeTier::velox`.
    let model = IdentityModel::new("songs", 2, 0.5);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    for item in 0..10u64 {
        velox.register_item(item, vec![(item as f64 * 0.4).sin(), (item as f64 * 0.4).cos()]);
    }
    tier.register("songs", Arc::new(VeloxBackend::new(velox))).unwrap();

    // A two-version custom scorer for alias flipping.
    tier.register("ads", Arc::new(CustomScorer::from_fn(|_, _| Ok(1.0)))).unwrap();
    tier.register("ads", Arc::new(CustomScorer::from_fn(|_, _| Ok(2.0)))).unwrap();

    tier
}

#[test]
fn models_listing_includes_backends_with_batch_stats() {
    let handle = RestServer::new(serving_fixture()).serve("127.0.0.1:0").unwrap();
    let client = VeloxClient::new(handle.addr(), "songs");

    // Serve a few predictions so the lane stats are non-trivial.
    for i in 0..5u64 {
        let p = client.predict(1, i).expect("tier predict");
        assert!(p.score.is_finite());
    }

    let names = client.list_models().expect("list models");
    assert_eq!(names, vec!["songs"], "legacy models array intact");

    let mut backends = client.list_backends().expect("list backends");
    backends.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(backends.len(), 2);
    assert_eq!(backends[0].name, "ads");
    assert_eq!(backends[0].kind, "custom");
    assert_eq!(backends[0].serving_version, 1, "second version retained but not serving");
    assert_eq!(backends[0].versions, vec![1, 2]);
    assert_eq!(backends[1].name, "songs");
    assert_eq!(backends[1].kind, "velox");
    assert_eq!(backends[1].requests, 5, "lane counted the batched predicts");
    assert!(backends[1].batches >= 1);
}

#[test]
fn alias_flip_changes_the_served_score_and_registry_errors_are_400() {
    let handle = RestServer::new(serving_fixture()).serve("127.0.0.1:0").unwrap();
    let client = VeloxClient::new(handle.addr(), "ads");

    assert_eq!(client.predict(1, 1).unwrap().score, 1.0, "v1 serves before the flip");
    let previous = client.flip_alias(2).expect("flip alias");
    assert_eq!(previous, 1);
    assert_eq!(client.predict(1, 1).unwrap().score, 2.0, "v2 serves after the flip");

    // Unretained version and unknown name: typed registry errors, 400.
    match client.flip_alias(99).unwrap_err() {
        ClientError::Server { status, message, .. } => {
            assert_eq!(status, 400);
            assert!(message.contains("no retained version"), "got: {message}");
        }
        other => panic!("expected server error, got {other:?}"),
    }
    let ghost = VeloxClient::new(handle.addr(), "ghost");
    match ghost.flip_alias(1).unwrap_err() {
        ClientError::Server { status, message, .. } => {
            assert_eq!(status, 400);
            assert!(message.contains("not registered"), "got: {message}");
        }
        other => panic!("expected server error, got {other:?}"),
    }
}

#[test]
fn tier_predict_response_carries_batching_provenance() {
    let handle = RestServer::new(serving_fixture()).serve("127.0.0.1:0").unwrap();

    // Raw request so the provenance fields are visible.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let body = r#"{"uid": 1, "item_id": 3}"#;
    let request = format!(
        "POST /models/songs/predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let json_body = response.split("\r\n\r\n").nth(1).expect("body");
    let json = velox_rest::json::Json::parse(json_body).expect("json");
    assert_eq!(json.get("batched").and_then(velox_rest::json::Json::as_bool), Some(true));
    assert_eq!(
        json.get("backend").and_then(|j| j.as_str().map(String::from)),
        Some("songs".to_string())
    );
    assert_eq!(json.get("backend_version").and_then(velox_rest::json::Json::as_u64), Some(1));
    assert_eq!(
        json.get("degradation").and_then(|j| j.as_str().map(String::from)),
        Some("full".to_string()),
        "Velox fidelity fields survive the batched path"
    );
}

#[test]
fn cluster_predict_routes_through_the_tier_when_cluster_backend_registered() {
    let cluster = Arc::new(Cluster::new(ClusterConfig { n_nodes: 3, ..Default::default() }));
    cluster.publish_item_features((0..8u64).map(|i| (i, vec![0.1 * i as f64, 0.2])).collect());
    let transport: Arc<dyn velox_cluster::Transport + Send + Sync> =
        Arc::new(SimTransport::new(cluster, 0.0));
    for i in 0..8u64 {
        transport.observe(7, i, 1.0).unwrap();
    }

    let tier = Arc::new(ServeTier::new());
    tier.register(CLUSTER_BACKEND, Arc::new(TransportBackend::new(Arc::clone(&transport))))
        .unwrap();
    let handle =
        RestServer::new(Arc::clone(&tier)).with_cluster(transport).serve("127.0.0.1:0").unwrap();
    let client = VeloxClient::new(handle.addr(), "unused");

    let p = client.cluster_predict(7, 3).expect("batched cluster predict");
    assert!(p.score.is_finite());
    assert!(!p.cold_start, "user 7 has weights");
    let stats = client.list_backends().unwrap();
    let lane = stats.iter().find(|b| b.name == CLUSTER_BACKEND).expect("cluster backend listed");
    assert_eq!(lane.kind, "cluster");
    assert_eq!(lane.requests, 1, "the predict went through the batching lane");

    // Observes still take the direct transport path.
    let ack = client.cluster_observe(7, 3, 1.0).expect("observe");
    assert!(ack.ts >= 1, "the owner assigned a logical timestamp");
    drop(handle);
    tier.shutdown();
}

#[test]
fn duplicate_registration_surfaces_the_typed_error() {
    let tier = ServeTier::new();
    tier.register_new("m", Arc::new(CustomScorer::from_fn(|_, _| Ok(1.0)))).unwrap();
    let err = tier.register_new("m", Arc::new(CustomScorer::from_fn(|_, _| Ok(2.0)))).unwrap_err();
    assert!(err.to_string().contains("already registered"));
}
