//! Tests for the observability endpoints: `GET /metrics` serves parseable
//! Prometheus text exposition covering the serving metrics, and
//! `GET /events` serves the lifecycle log as JSON.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use velox_core::{Velox, VeloxConfig};
use velox_models::IdentityModel;
use velox_rest::json::Json;
use velox_rest::RestServer;
use velox_serve::{ServeTier, VeloxBackend};

fn start() -> (velox_rest::RestHandle, std::net::SocketAddr) {
    let deployments = Arc::new(ServeTier::new());
    let model = IdentityModel::new("songs", 2, 0.5);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    for item in 0..10u64 {
        velox.register_item(item, vec![(item as f64 * 0.4).sin(), (item as f64 * 0.4).cos()]);
    }
    deployments.register("songs", Arc::new(VeloxBackend::new(velox))).unwrap();
    let handle = RestServer::new(deployments).serve("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    (handle, addr)
}

/// Sends one HTTP request, returns `(status, content-type, raw body)`.
fn call_raw(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request =
        format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 =
        response.split_whitespace().nth(1).expect("status line").parse().expect("numeric status");
    let (head, payload) = response.split_once("\r\n\r\n").expect("header/body split");
    let content_type = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-type: ").map(str::to_string))
        .unwrap_or_default();
    (status, content_type, payload.to_string())
}

/// Minimal structural check of Prometheus text exposition 0.0.4: every
/// non-comment line is `name{labels} value`, every sample's family was
/// declared by a preceding `# TYPE`, and no family is declared twice.
fn check_prometheus(body: &str) -> Vec<String> {
    let mut declared: Vec<String> = Vec::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("family name").to_string();
            let kind = parts.next().expect("metric kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unexpected kind {kind} in {line:?}"
            );
            assert!(!declared.contains(&family), "family {family} declared twice");
            declared.push(family);
        } else if !line.starts_with('#') {
            let name_end = line.find(['{', ' ']).expect("sample name end");
            let name = &line[..name_end];
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|base| declared.iter().any(|d| d == base))
                .unwrap_or(name);
            assert!(
                declared.iter().any(|d| d == family),
                "sample {name} has no preceding # TYPE for {family}"
            );
            let value = line.rsplit(' ').next().expect("value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
    }
    declared
}

#[test]
fn metrics_exposition_covers_serving_metrics() {
    let (handle, addr) = start();
    // Generate traffic so the serving metrics are non-trivial.
    call_raw(addr, "POST", "/models/songs/observe", r#"{"uid": 1, "item_id": 2, "y": 1.5}"#);
    call_raw(addr, "POST", "/models/songs/predict", r#"{"uid": 1, "item_id": 2}"#);
    call_raw(addr, "POST", "/models/songs/predict", r#"{"uid": 1, "item_id": 2}"#);

    let (status, content_type, body) = call_raw(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(content_type.starts_with("text/plain"), "got content-type {content_type:?}");

    let families = check_prometheus(&body);
    for expected in [
        "velox_predict_latency_ns",
        "velox_observe_latency_ns",
        "velox_online_update_latency_ns",
        "velox_prediction_cache_hits_total",
        "velox_prediction_cache_misses_total",
        "velox_observations_total",
        "velox_rest_request_latency_ns",
    ] {
        assert!(families.iter().any(|f| f == expected), "missing family {expected}: {families:?}");
    }

    // Deployment metrics are labeled with the model name, and the
    // histogram carries the full bucket/sum/count triple.
    assert!(body.contains(r#"model="songs""#), "deployment samples carry the model label");
    assert!(body.contains("velox_predict_latency_ns_bucket"));
    assert!(body.contains(r#"le="+Inf""#));
    assert!(body.contains("velox_predict_latency_ns_count"));

    // The cache counters on this traffic: 2 predicts = 1 miss + 1 hit.
    let counter_value = |name: &str| -> f64 {
        body.lines()
            .filter(|l| l.starts_with(name) && !l.starts_with('#'))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum()
    };
    assert_eq!(counter_value("velox_prediction_cache_hits_total"), 1.0);
    assert_eq!(counter_value("velox_prediction_cache_misses_total"), 1.0);
    assert_eq!(counter_value("velox_observations_total"), 1.0);
    handle.shutdown();
}

#[test]
fn events_endpoint_serves_lifecycle_log_as_json() {
    let (handle, addr) = start();
    for item in 0..10u64 {
        call_raw(
            addr,
            "POST",
            "/models/songs/observe",
            &format!(r#"{{"uid": 1, "item_id": {item}, "y": 1.0}}"#),
        );
    }
    let (status, _, _) = call_raw(addr, "POST", "/models/songs/retrain", "");
    assert_eq!(status, 200);

    let (status, content_type, body) = call_raw(addr, "GET", "/events", "");
    assert_eq!(status, 200);
    assert!(content_type.starts_with("application/json"));
    let parsed = Json::parse(&body).expect("valid JSON");
    let events = parsed.get("events").expect("events key").as_array().expect("array");
    assert!(!events.is_empty(), "retrain must have produced events");

    let kinds: Vec<&str> =
        events.iter().map(|e| e.get("kind").unwrap().as_str().unwrap()).collect();
    assert!(kinds.contains(&"retrain_start"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"retrain_finish"));
    assert!(kinds.contains(&"version_swap"));
    for event in events {
        assert_eq!(event.get("model").unwrap().as_str(), Some("songs"));
        assert!(event.get("seq").unwrap().as_u64().is_some());
        assert!(event.get("at_unix_ms").unwrap().as_u64().is_some());
        assert!(matches!(event.get("fields"), Some(Json::Object(_))));
    }
    handle.shutdown();
}

/// The exposition cache: within the TTL a scrape is served verbatim from
/// cache (traffic between scrapes is invisible), but registering a new
/// deployment invalidates immediately — the registry check, not the clock.
#[test]
fn metrics_exposition_is_cached_until_the_deployment_set_changes() {
    let deployments = Arc::new(ServeTier::new());
    let model = IdentityModel::new("songs", 2, 0.5);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    for item in 0..10u64 {
        velox.register_item(item, vec![(item as f64 * 0.4).sin(), (item as f64 * 0.4).cos()]);
    }
    deployments.register("songs", Arc::new(VeloxBackend::new(velox))).unwrap();
    let config = velox_rest::ServerConfig {
        // Far beyond the test's runtime, so the only invalidation that can
        // fire is the deployment-set change.
        metrics_cache_ttl: std::time::Duration::from_secs(600),
        ..Default::default()
    };
    let handle = RestServer::with_config(Arc::clone(&deployments), config)
        .serve("127.0.0.1:0")
        .expect("bind");
    let addr = handle.addr();

    call_raw(addr, "POST", "/models/songs/observe", r#"{"uid": 1, "item_id": 2, "y": 1.5}"#);
    let (_, _, first) = call_raw(addr, "GET", "/metrics", "");

    // New traffic bumps the live counters, but the cached body is served.
    call_raw(addr, "POST", "/models/songs/observe", r#"{"uid": 1, "item_id": 3, "y": 0.5}"#);
    let (_, _, second) = call_raw(addr, "GET", "/metrics", "");
    assert_eq!(first, second, "within the TTL the cached exposition is served verbatim");

    // Registering a model changes the deployment set: immediate refresh.
    let other = IdentityModel::new("films", 2, 0.5);
    let films = Velox::deploy(Arc::new(other), HashMap::new(), VeloxConfig::single_node());
    deployments.register("films", Arc::new(VeloxBackend::new(Arc::new(films)))).unwrap();
    let (_, _, third) = call_raw(addr, "GET", "/metrics", "");
    assert!(third.contains(r#"model="films""#), "new deployment visible without waiting out TTL");
    assert_ne!(second, third);
    handle.shutdown();
}

/// `/metrics` and `/events` enumerate the serving tier's registry: a
/// deployment registered there — on the tier `with_serving` mounts, the
/// harness's shape — is labeled and listed like any other.
#[test]
fn a_tier_registered_deployment_is_enumerated_by_metrics_and_events() {
    let tier = Arc::new(ServeTier::new());
    let model = IdentityModel::new("ads", 2, 0.5);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    velox.register_item(0, vec![0.5, 0.5]);
    for _ in 0..4 {
        velox.observe(1, &velox_core::Item::Id(0), 1.0).unwrap();
    }
    velox.retrain_offline().unwrap();
    tier.register("ads", Arc::new(VeloxBackend::new(velox))).unwrap();
    let handle = RestServer::new(Arc::new(ServeTier::new()))
        .with_serving(tier)
        .serve("127.0.0.1:0")
        .expect("bind");
    let addr = handle.addr();

    let (status, _, metrics) = call_raw(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    check_prometheus(&metrics);
    assert!(
        metrics.lines().any(|l| l.starts_with("velox_observations_total{model=\"ads\"}")),
        "the tier's deployment is in the exposition"
    );

    let (status, _, events) = call_raw(addr, "GET", "/events", "");
    assert_eq!(status, 200);
    let parsed = Json::parse(&events).expect("valid JSON");
    let events = parsed.get("events").and_then(Json::as_array).expect("events array");
    assert!(events.iter().any(|e| e.get("kind").and_then(Json::as_str) == Some("version_swap")));
    assert!(events.iter().all(|e| e.get("model").and_then(Json::as_str) == Some("ads")));
    handle.shutdown();
}

#[test]
fn request_latency_is_tracked_per_endpoint() {
    let (handle, addr) = start();
    call_raw(addr, "GET", "/models", "");
    call_raw(addr, "POST", "/models/songs/predict", r#"{"uid": 1, "item_id": 2}"#);
    let (_, _, body) = call_raw(addr, "GET", "/metrics", "");
    assert!(
        body.contains(r#"velox_rest_request_latency_ns_count{endpoint="models"}"#),
        "per-endpoint labels present"
    );
    assert!(body.contains(r#"velox_rest_request_latency_ns_count{endpoint="predict"}"#));
    handle.shutdown();
}
