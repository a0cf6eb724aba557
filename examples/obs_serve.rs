//! A live `/metrics` wire over an engine under load: builds a directory
//! overlay, publishes objects, then serves lookup batches in a loop
//! while a [`MetricsServer`] answers `GET /metrics` (Prometheus text
//! format) and `GET /health` from the live registry.
//!
//! Run with: `cargo run --example obs_serve`
//!
//! Knobs:
//! - `RON_METRICS_ADDR=127.0.0.1:9184` binds the wire to a fixed
//!   address (default: a self-test on an ephemeral `127.0.0.1` port
//!   that scrapes itself once and exits);
//! - `RON_SERVE_MS=20000` keeps the load loop (and the wire) up that
//!   long (default 250 ms, so the example terminates quickly).
//!
//! [`MetricsServer`]: rings_of_neighbors::obs::MetricsServer

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rings_of_neighbors::location::{
    DirectoryOverlay, EngineConfig, EpochCell, ObjectId, QueryEngine, Snapshot,
};
use rings_of_neighbors::metric::{gen, Node, Space};
use rings_of_neighbors::obs;

fn main() {
    // RON_TRACE is honored as usual; recording itself is
    // forced on — a metrics wire over a silent registry serves nothing.
    obs::init_from_env();
    obs::set_enabled(true);
    obs::reset();

    let n = 256;
    let objects = 64;
    let space = Space::new(gen::uniform_cube(n, 2, 7));
    let mut overlay = DirectoryOverlay::build(&space);
    let items: Vec<(ObjectId, Node)> = (0..objects)
        .map(|i| (ObjectId(i as u64), Node::new((i * 31 + 1) % n)))
        .collect();
    overlay.publish_batch(&space, &items);
    let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
    let engine = QueryEngine::new(&space, &cell);
    let queries: Vec<(Node, ObjectId)> = (0..2048usize)
        .map(|i| {
            let origin = Node::new((i * 53 + 7) % n);
            let obj = ObjectId(((i * 97 + 13) % objects) as u64);
            (origin, obj)
        })
        .collect();

    // A fixed RON_METRICS_ADDR serves externally; the default is a
    // self-test on an ephemeral port so CI can run every example
    // unattended.
    let mut server = obs::serve_from_env()
        .unwrap_or_else(|| obs::MetricsServer::bind("127.0.0.1:0").expect("bind ephemeral port"));
    println!("serving /metrics and /health on http://{}", server.addr());

    let serve_ms: u64 = std::env::var("RON_SERVE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250);
    let deadline = Instant::now() + Duration::from_millis(serve_ms);
    let config = EngineConfig::default();
    let mut batches = 0u64;
    while Instant::now() < deadline {
        let report = engine.serve(&queries, &config);
        batches += 1;
        assert_eq!(report.failures, 0, "static overlay serves everything");
        // Scrapes run on the wire's handler threads and see the global
        // store; this loop's own records must be flushed to land there.
        obs::flush();
    }
    println!(
        "served {batches} batches x {} lookups under scrape load",
        queries.len()
    );

    // Self-scrape: fetch our own endpoints over real TCP, exactly as a
    // Prometheus agent would.
    let fetch = |path: &str| -> String {
        let mut conn = TcpStream::connect(server.addr()).expect("connect to own wire");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    };
    let health = fetch("/health");
    assert!(health.starts_with("HTTP/1.1 200"), "health: {health}");
    let metrics = fetch("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "metrics: {metrics}");
    assert!(
        metrics.contains("ron_counter") && metrics.contains("ron_latency_count"),
        "the scrape must carry the engine's live metrics"
    );
    let samples = metrics
        .lines()
        .filter(|l| !l.starts_with('#') && l.contains('{'))
        .count();
    println!("self-scrape ok: {samples} samples exposed");

    server.shutdown();
    obs::reset();
    obs::set_enabled(false);
}
