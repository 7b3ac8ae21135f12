//! REST surface of the durability subsystem: `POST
//! /models/{name}/checkpoint` persists the deployment,
//! `POST /models/{name}/recover` rebuilds it strictly from disk (the same
//! path a crashed process takes on restart), and both fail cleanly on
//! memory-only deployments.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use velox_core::{DurabilityConfig, Item, Velox, VeloxConfig, VeloxModel};
use velox_models::IdentityModel;
use velox_rest::json::Json;
use velox_rest::RestServer;
use velox_serve::{ServeTier, VeloxBackend};
use velox_storage::ScratchDir;

/// Sends one HTTP request, returns `(status, parsed JSON body)`.
fn call(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request =
        format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 =
        response.split_whitespace().nth(1).expect("status line").parse().expect("numeric status");
    let (_, payload) = response.split_once("\r\n\r\n").expect("header/body split");
    (status, Json::parse(payload).expect("JSON body"))
}

fn durable_config(scratch: &ScratchDir) -> VeloxConfig {
    VeloxConfig {
        durability: Some(DurabilityConfig::new(scratch.join("state"))),
        ..VeloxConfig::single_node()
    }
}

fn start_durable(
    scratch: &ScratchDir,
) -> (velox_rest::RestHandle, std::net::SocketAddr, Arc<ServeTier>) {
    let deployments = Arc::new(ServeTier::new());
    let (velox, _report) = Velox::deploy_durable(
        |_| Ok(Arc::new(IdentityModel::new("songs", 2, 0.5)) as Arc<dyn VeloxModel>),
        HashMap::new(),
        durable_config(scratch),
    )
    .expect("durable deploy");
    for item in 0..10u64 {
        velox.register_item(item, vec![(item as f64 * 0.4).sin(), (item as f64 * 0.4).cos()]);
    }
    deployments.register("songs", Arc::new(VeloxBackend::new(Arc::new(velox)))).unwrap();
    let handle = RestServer::new(Arc::clone(&deployments)).serve("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    (handle, addr, deployments)
}

fn observe(addr: std::net::SocketAddr, uid: u64, item: u64, y: f64) {
    let (status, _) = call(
        addr,
        "POST",
        "/models/songs/observe",
        &format!(r#"{{"uid": {uid}, "item_id": {item}, "y": {y}}}"#),
    );
    assert_eq!(status, 200);
}

#[test]
fn checkpoint_and_recover_round_trip_over_rest() {
    let scratch = ScratchDir::new("rest-durable");
    let (handle, addr, _deployments) = start_durable(&scratch);

    for i in 0..6u64 {
        observe(addr, i % 3, i % 10, 1.0 + i as f64 * 0.1);
    }

    // Checkpoint covers the six observations.
    let (status, body) = call(addr, "POST", "/models/songs/checkpoint", "");
    assert_eq!(status, 200, "checkpoint failed: {body:?}");
    assert_eq!(body.get("seq").and_then(Json::as_u64), Some(1));
    assert_eq!(body.get("wal_offset").and_then(Json::as_u64), Some(6));

    // More observations land only in the WAL tail.
    for i in 0..4u64 {
        observe(addr, i % 2, i % 10, -0.5);
    }

    // Recovery drill: checkpoint restore + WAL-tail replay of exactly the
    // four post-checkpoint records.
    let (status, body) = call(addr, "POST", "/models/songs/recover", "");
    assert_eq!(status, 200, "recover failed: {body:?}");
    assert_eq!(body.get("checkpoint_seq").and_then(Json::as_u64), Some(1));
    assert_eq!(body.get("checkpoint_wal_offset").and_then(Json::as_u64), Some(6));
    assert_eq!(body.get("replayed").and_then(Json::as_u64), Some(4));
    assert_eq!(body.get("torn").and_then(Json::as_bool), Some(false));
    assert_eq!(body.get("apply_failures").and_then(Json::as_u64), Some(0));

    // The recovered deployment serves: full observation count, durability
    // attached, and the API still works end to end.
    let (status, stats) = call(addr, "GET", "/models/songs/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("observations").and_then(Json::as_u64), Some(10));
    let durability = stats.get("durability").expect("durability stats");
    assert_eq!(durability.get("enabled").and_then(Json::as_bool), Some(true));
    assert_eq!(durability.get("recovery_replayed").and_then(Json::as_u64), Some(4));

    let (status, _) = call(addr, "POST", "/models/songs/predict", r#"{"uid": 1, "item_id": 2}"#);
    assert_eq!(status, 200);
    observe(addr, 1, 2, 0.25);
    let (_, stats) = call(addr, "GET", "/models/songs/stats", "");
    assert_eq!(stats.get("observations").and_then(Json::as_u64), Some(11));

    handle.shutdown();
}

#[test]
fn durability_endpoints_reject_memory_only_deployments() {
    let deployments = Arc::new(ServeTier::new());
    let model = IdentityModel::new("songs", 2, 0.5);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    deployments.register("songs", Arc::new(VeloxBackend::new(velox))).unwrap();
    let handle = RestServer::new(deployments).serve("127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    for path in ["/models/songs/checkpoint", "/models/songs/recover"] {
        let (status, body) = call(addr, "POST", path, "");
        assert_eq!(status, 400, "{path} must reject a memory-only deployment");
        assert!(
            body.get("error").and_then(Json::as_str).unwrap_or("").contains("durability"),
            "error mentions durability: {body:?}"
        );
    }
    // An unknown model is still a 404, not a durability error.
    let (status, _) = call(addr, "POST", "/models/ghost/checkpoint", "");
    assert_eq!(status, 404);
    handle.shutdown();
}

/// A recover swaps the recovered deployment in for every route at once:
/// predicts (through the tier's lane) and observes and stats (through
/// `ServeTier::velox`) all reach the same, recovered instance, and the
/// registry keeps no version of the closed one.
#[test]
fn recover_swaps_the_deployment_every_route_serves() {
    let scratch = ScratchDir::new("rest-recover-swap");
    let (handle, addr, tier) = start_durable(&scratch);
    for i in 0..6u64 {
        observe(addr, i % 3, i % 10, 1.0 + i as f64 * 0.1);
    }
    let (status, _) = call(addr, "POST", "/models/songs/checkpoint", "");
    assert_eq!(status, 200);
    let closed = tier.velox("songs").expect("songs is a Velox deployment");

    let (status, body) = call(addr, "POST", "/models/songs/recover", "");
    assert_eq!(status, 200, "recover failed: {body:?}");
    for i in 0..20u64 {
        observe(addr, i % 3, i % 10, 2.0 - i as f64 * 0.1);
    }

    let recovered = tier.velox("songs").expect("recovered deployment");
    let own = recovered.predict(1, &Item::Id(2)).expect("direct predict").score;
    let (status, served) =
        call(addr, "POST", "/models/songs/predict", r#"{"uid": 1, "item_id": 2}"#);
    assert_eq!(status, 200);
    let rest = served.get("score").and_then(Json::as_f64).expect("score");
    assert_eq!(rest.to_bits(), own.to_bits(), "REST predict {rest} vs the deployment's {own}");

    let (status, stats) = call(addr, "GET", "/models/songs/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("observations").and_then(Json::as_u64), Some(26));

    let snapshot = tier.snapshot();
    for version in snapshot.versions("songs").unwrap() {
        let entry = snapshot.resolve_version("songs", version).unwrap();
        let held = entry.backend.velox().expect("a Velox backend");
        assert!(!Arc::ptr_eq(&held, &closed), "version {version} still holds the closed instance");
    }
    handle.shutdown();
}
