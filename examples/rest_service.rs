//! The RESTful client interface (§8: the prototype "exposes a RESTful
//! client interface").
//!
//! ```text
//! cargo run --release --example rest_service
//! ```
//!
//! Starts the HTTP front end on an ephemeral port, then drives it the way
//! an application tier would — plain HTTP requests, no Velox client
//! library — exercising observe/predict/topK/stats/retrain end to end.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use velox::prelude::*;
use velox_rest::RestServer;

fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request =
        format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    response.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
}

fn main() {
    // `--serve <addr>` keeps the server in the foreground for external
    // clients (curl, load generators) instead of running the scripted demo.
    let args: Vec<String> = std::env::args().collect();
    let serve_addr = args
        .iter()
        .position(|a| a == "--serve")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "127.0.0.1:8366".into()));

    // A deployment: per-user ridge over two song attributes.
    let tier = Arc::new(ServeTier::new());
    let velox = Arc::new(Velox::deploy(
        Arc::new(IdentityModel::new("songs", 2, 0.5)),
        HashMap::new(),
        VeloxConfig::single_node(),
    ));
    for song in 0..8u64 {
        velox.register_item(song, vec![(song as f64 * 0.5).sin(), (song as f64 * 0.5).cos()]);
    }
    tier.register("songs", Arc::new(VeloxBackend::new(velox))).expect("register songs");

    if let Some(addr) = serve_addr {
        let handle = RestServer::new(tier).serve(&addr).expect("bind");
        println!("velox REST front end listening on http://{} (Ctrl-C to stop)", handle.addr());
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    let handle = RestServer::new(tier).serve("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    println!("velox REST front end listening on http://{addr}\n");

    println!("GET /models\n  -> {}", http(addr, "GET", "/models", ""));

    println!("\nPOST /models/songs/observe (three feedback events for user 42)");
    for (song, rating) in [(0u64, 2.0f64), (1, -1.0), (2, 1.5)] {
        let body = format!(r#"{{"uid": 42, "item_id": {song}, "y": {rating}}}"#);
        println!(
            "  song {song}, y={rating:+} -> {}",
            http(addr, "POST", "/models/songs/observe", &body)
        );
    }

    println!("\nPOST /models/songs/predict");
    for song in 0..4u64 {
        let body = format!(r#"{{"uid": 42, "item_id": {song}}}"#);
        println!("  song {song} -> {}", http(addr, "POST", "/models/songs/predict", &body));
    }

    println!("\nPOST /models/songs/topk");
    let body = r#"{"uid": 42, "item_ids": [0,1,2,3,4,5,6,7]}"#;
    println!("  -> {}", http(addr, "POST", "/models/songs/topk", body));

    println!("\nPOST /models/songs/retrain");
    println!("  -> {}", http(addr, "POST", "/models/songs/retrain", ""));

    println!("\nGET /models/songs/stats");
    println!("  -> {}", http(addr, "GET", "/models/songs/stats", ""));

    println!("\nGET /events (lifecycle log)");
    println!("  -> {}", http(addr, "GET", "/events", ""));

    println!("\nGET /metrics (Prometheus exposition at exit)");
    let metrics = http(addr, "GET", "/metrics", "");
    for line in metrics.lines() {
        println!("  {line}");
    }

    handle.shutdown();
    println!("\nserver shut down cleanly.");
}
