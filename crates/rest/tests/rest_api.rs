//! End-to-end tests of the REST front end: a real listener on an ephemeral
//! port, raw HTTP over `TcpStream`, JSON in and out.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use velox_core::{Velox, VeloxConfig, VeloxServer};
use velox_models::IdentityModel;
use velox_rest::json::Json;
use velox_rest::RestServer;

fn start() -> (velox_rest::RestHandle, std::net::SocketAddr) {
    let deployments = Arc::new(VeloxServer::new());
    let model = IdentityModel::new("songs", 2, 0.5);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    for item in 0..10u64 {
        velox.register_item(item, vec![(item as f64 * 0.4).sin(), (item as f64 * 0.4).cos()]);
    }
    deployments.install("songs", velox);
    let handle = RestServer::new(deployments).serve("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    (handle, addr)
}

/// Sends one HTTP request and returns `(status, parsed JSON body)`.
fn call(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request =
        format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 =
        response.split_whitespace().nth(1).expect("status line").parse().expect("numeric status");
    let json_body = response.split("\r\n\r\n").nth(1).expect("body");
    (status, Json::parse(json_body).expect("JSON body"))
}

#[test]
fn list_models() {
    let (handle, addr) = start();
    let (status, body) = call(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    let models = body.get("models").unwrap().as_array().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].as_str(), Some("songs"));
    handle.shutdown();
}

#[test]
fn observe_then_predict() {
    let (handle, addr) = start();
    // Feedback for user 7 on item 3.
    let (status, outcome) =
        call(addr, "POST", "/models/songs/observe", r#"{"uid": 7, "item_id": 3, "y": 2.0}"#);
    assert_eq!(status, 200);
    assert_eq!(outcome.get("trained").unwrap().as_bool(), Some(true));
    assert!(outcome.get("loss").unwrap().as_f64().unwrap() >= 0.0);

    // Prediction reflects the update.
    let (status, pred) = call(addr, "POST", "/models/songs/predict", r#"{"uid": 7, "item_id": 3}"#);
    assert_eq!(status, 200);
    let score = pred.get("score").unwrap().as_f64().unwrap();
    assert!(score > 0.3, "learned positive preference: {score}");
    assert_eq!(pred.get("cached").unwrap().as_bool(), Some(false));

    // Second identical request is cache-served.
    let (_, pred2) = call(addr, "POST", "/models/songs/predict", r#"{"uid": 7, "item_id": 3}"#);
    assert_eq!(pred2.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(pred2.get("score").unwrap().as_f64(), Some(score));
    handle.shutdown();
}

#[test]
fn topk_over_http() {
    let (handle, addr) = start();
    call(addr, "POST", "/models/songs/observe", r#"{"uid": 1, "item_id": 0, "y": 3.0}"#);
    let (status, body) =
        call(addr, "POST", "/models/songs/topk", r#"{"uid": 1, "item_ids": [0, 1, 2, 3, 4]}"#);
    assert_eq!(status, 200);
    let ranked = body.get("ranked").unwrap().as_array().unwrap();
    assert_eq!(ranked.len(), 5);
    // Descending scores.
    let scores: Vec<f64> =
        ranked.iter().map(|pair| pair.as_array().unwrap()[1].as_f64().unwrap()).collect();
    for w in scores.windows(2) {
        assert!(w[0] >= w[1]);
    }
    assert!(body.get("served_item").unwrap().as_u64().unwrap() < 10);
    handle.shutdown();
}

#[test]
fn raw_features_flow() {
    let (handle, addr) = start();
    let (status, _) = call(
        addr,
        "POST",
        "/models/songs/observe",
        r#"{"uid": 2, "features": [1.0, 0.0], "y": 5.0}"#,
    );
    assert_eq!(status, 200);
    let (status, pred) =
        call(addr, "POST", "/models/songs/predict", r#"{"uid": 2, "features": [1.0, 0.0]}"#);
    assert_eq!(status, 200);
    assert!(pred.get("score").unwrap().as_f64().unwrap() > 1.0);
    handle.shutdown();
}

/// `1e999` is valid JSON and parses to +∞. As a label it used to poison the
/// user's weights and panic the next `topk`; as a label or a raw feature it
/// is now a 400 that changes nothing.
#[test]
fn non_finite_numbers_are_a_400_and_change_nothing() {
    let (handle, addr) = start();
    let (status, _) =
        call(addr, "POST", "/models/songs/observe", r#"{"uid": 4, "item_id": 3, "y": 2.0}"#);
    assert_eq!(status, 200);
    let (_, before) = call(addr, "POST", "/models/songs/predict", r#"{"uid": 4, "item_id": 3}"#);
    let score = before.get("score").unwrap().as_f64().unwrap();

    for (route, body) in [
        ("observe", r#"{"uid": 4, "item_id": 3, "y": 1e999}"#),
        ("observe", r#"{"uid": 4, "item_id": 3, "y": -1e999}"#),
        ("observe", r#"{"uid": 4, "features": [1e999, 0.0], "y": 1.0}"#),
        ("predict", r#"{"uid": 4, "features": [0.5, -1e999]}"#),
    ] {
        let (status, err) = call(addr, "POST", &format!("/models/songs/{route}"), body);
        assert_eq!(status, 400, "{route} {body}");
        assert!(err.get("error").unwrap().as_str().unwrap().contains("finite"), "{err:?}");
    }

    // Weights and version untouched: still a cache hit, same score.
    let (_, after) = call(addr, "POST", "/models/songs/predict", r#"{"uid": 4, "item_id": 3}"#);
    assert_eq!(after.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(after.get("score").unwrap().as_f64(), Some(score));
    // A⁻¹ untouched: the user's top-k still ranks finite scores.
    let (status, body) =
        call(addr, "POST", "/models/songs/topk", r#"{"uid": 4, "item_ids": [0, 1, 2, 3, 4, 5]}"#);
    assert_eq!(status, 200);
    let ranked = body.get("ranked").unwrap().as_array().unwrap();
    assert_eq!(ranked.len(), 6);
    assert!(ranked.iter().all(|pair| pair.as_array().unwrap()[1].as_f64().unwrap().is_finite()));
    handle.shutdown();
}

#[test]
fn stats_endpoint() {
    let (handle, addr) = start();
    call(addr, "POST", "/models/songs/observe", r#"{"uid": 1, "item_id": 1, "y": 1.0}"#);
    let (status, stats) = call(addr, "GET", "/models/songs/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("model_version").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("observations").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("stale").unwrap().as_bool(), Some(false));
    handle.shutdown();
}

#[test]
fn retrain_endpoint() {
    let (handle, addr) = start();
    for item in 0..10u64 {
        call(
            addr,
            "POST",
            "/models/songs/observe",
            &format!(r#"{{"uid": 1, "item_id": {item}, "y": 1.0}}"#),
        );
    }
    let (status, body) = call(addr, "POST", "/models/songs/retrain", "");
    assert_eq!(status, 200);
    assert_eq!(body.get("version").unwrap().as_u64(), Some(2));
    handle.shutdown();
}

#[test]
fn error_paths() {
    let (handle, addr) = start();
    // Unknown model → 404.
    let (status, body) = call(addr, "POST", "/models/nope/predict", r#"{"uid":1,"item_id":1}"#);
    assert_eq!(status, 404);
    assert!(body.get("error").unwrap().as_str().unwrap().contains("nope"));
    // Unknown route → 404.
    let (status, _) = call(addr, "GET", "/frobnicate", "");
    assert_eq!(status, 404);
    // Missing uid → 400.
    let (status, _) = call(addr, "POST", "/models/songs/predict", r#"{"item_id": 1}"#);
    assert_eq!(status, 400);
    // Malformed JSON → 400.
    let (status, _) = call(addr, "POST", "/models/songs/predict", "{not json");
    assert_eq!(status, 400);
    // Unknown item → 400 (model error).
    let (status, _) = call(addr, "POST", "/models/songs/predict", r#"{"uid": 1, "item_id": 999}"#);
    assert_eq!(status, 400);
    // Wrong method → 405.
    let (status, _) = call(addr, "DELETE", "/models/songs/predict", "");
    assert_eq!(status, 405);
    handle.shutdown();
}

#[test]
fn concurrent_clients() {
    let (handle, addr) = start();
    let mut threads = Vec::new();
    for t in 0..8u64 {
        threads.push(std::thread::spawn(move || {
            for i in 0..20u64 {
                let (status, _) = call(
                    addr,
                    "POST",
                    "/models/songs/observe",
                    &format!(r#"{{"uid": {t}, "item_id": {}, "y": 1.0}}"#, i % 10),
                );
                assert_eq!(status, 200);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let (_, stats) = call(addr, "GET", "/models/songs/stats", "");
    assert_eq!(stats.get("observations").unwrap().as_u64(), Some(160));
    handle.shutdown();
}

mod client_tests {
    use super::*;
    use velox_rest::VeloxClient;

    #[test]
    fn typed_client_round_trip() {
        let (handle, addr) = start();
        let client = VeloxClient::new(addr, "songs");

        assert_eq!(client.list_models().unwrap(), vec!["songs"]);

        let obs = client.observe(9, 2, 3.0).unwrap();
        assert!(obs.trained);
        assert!(obs.loss >= 0.0);

        let pred = client.predict(9, 2).unwrap();
        assert!(pred.score > 0.5, "learned the signal: {}", pred.score);
        assert!(!pred.bootstrapped);

        let top = client.top_k(9, &[0, 1, 2, 3]).unwrap();
        assert_eq!(top.ranked.len(), 4);
        assert_eq!(top.ranked[0].0, 2, "trained item ranks first");
        assert!(top.served_item < 10);

        let v = client.retrain().unwrap();
        assert_eq!(v, 2);
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("model_version").unwrap().as_u64(), Some(2));
        handle.shutdown();
    }

    #[test]
    fn typed_client_surfaces_server_errors() {
        let (handle, addr) = start();
        let client = VeloxClient::new(addr, "no-such-model");
        match client.predict(1, 1) {
            Err(velox_rest::ClientError::Server { status: 404, message, .. }) => {
                assert!(message.contains("no-such-model"));
            }
            other => panic!("expected 404 server error, got {other:?}"),
        }
        // Unknown item on a real model → 400.
        let client = VeloxClient::new(addr, "songs");
        assert!(matches!(
            client.predict(1, 999),
            Err(velox_rest::ClientError::Server { status: 400, .. })
        ));
        handle.shutdown();
    }
}
