//! # ron-obs — zero-dependency observability for the rings stack
//!
//! A hand-rolled (no registry access, like the `rand`/`proptest`
//! shims) metrics and tracing layer the whole workspace sits on:
//!
//! * **[`Registry`]** — named counters, high-water-mark gauges, and
//!   [`Pow2Histogram`]s, recorded through thread-local collectors and
//!   drained into a deterministic label-sorted snapshot.
//! * **Spans** — [`span()`]`("directory.lookup")` returns a guard
//!   that records its scope's duration into a histogram;
//!   [`start`]/[`finish`] are the hot-path variant. [`stage`]
//!   attributes everything recorded inside a scope — across `par`
//!   worker threads — to a named stage.
//! * **Exporters** — [`Registry::render`] (aligned text), an opt-in
//!   Chrome-trace dump ([`write_chrome_trace`], enabled by
//!   `RON_TRACE=chrome`), and the Prometheus text form
//!   ([`prometheus_text`]) served live over TCP by [`MetricsServer`]
//!   (`RON_METRICS_ADDR`, `GET /metrics`).
//!
//! Everything is **off by default**: each instrumentation point costs
//! one relaxed atomic load until [`set_enabled`]/[`init_from_env`]
//! turns recording on, and recording never influences protocol logic,
//! RNG draws, or event ordering — the simulator's trace fingerprints
//! are byte-identical with observability on or off (property-tested in
//! `ron-sim`).
//!
//! ```
//! ron_obs::reset();
//! ron_obs::set_enabled(true);
//! {
//!     let _stage = ron_obs::stage("nets");
//!     ron_obs::count("oracle.ball.sparse", 3);
//!     ron_obs::observe("directory.publish.fanout", 17);
//! }
//! let reg = ron_obs::drain();
//! assert_eq!(reg.counter("oracle.ball.sparse/nets"), 3);
//! assert_eq!(reg.histogram("directory.publish.fanout/nets").unwrap().count(), 1);
//! ron_obs::set_enabled(false);
//! ```

mod chrome;
mod expo;
mod hist;
mod registry;
mod serve;
mod span;

pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use expo::prometheus_text;
pub use hist::Pow2Histogram;
pub use registry::{
    chrome_enabled, count, count_labeled, drain, enabled, flush, gauge_max, init_from_env, label,
    observe, observe_labeled, peek, reset, set_chrome, set_enabled, Label, Registry,
};
pub use serve::{serve_from_env, MetricsServer};
pub use span::{finish, span, stage, start, SpanGuard, StageGuard};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // The registry is process-global state; tests that enable it must
    // not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        guard
    }

    fn done(guard: MutexGuard<'static, ()>) {
        set_enabled(false);
        reset();
        drop(guard);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let guard = exclusive();
        set_enabled(false);
        count("c", 1);
        gauge_max("g", 9);
        observe("h", 3);
        let _span = span("s");
        drop(_span);
        assert!(drain().is_empty());
        done(guard);
    }

    #[test]
    fn drain_is_identical_no_matter_which_threads_recorded() {
        let guard = exclusive();
        // Everything on one thread.
        for i in 0..10u64 {
            count("work.calls", 1);
            observe("work.size", i);
        }
        gauge_max("work.peak", 7);
        let single = drain();
        // The same records spread over four threads.
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..10u64 {
                        if i % 4 == t {
                            count("work.calls", 1);
                            observe("work.size", i);
                        }
                    }
                    if t == 2 {
                        gauge_max("work.peak", 7);
                    }
                    // Flush before the closure returns: scope() can
                    // observe a thread as finished before its TLS
                    // destructors run, so the drop-flush alone would
                    // race the spawner's drain.
                    flush();
                });
            }
        });
        let sharded = drain();
        assert_eq!(single, sharded);
        assert_eq!(single.counter("work.calls"), 10);
        assert_eq!(single.gauges["work.peak"], 7);
        assert_eq!(single.histograms["work.size"].count(), 10);
        done(guard);
    }

    #[test]
    fn stage_and_label_compose_into_sorted_keys() {
        let guard = exclusive();
        let shard = label("shard3");
        {
            let _s = stage("publish");
            count("oracle.ball", 2);
            count_labeled("cache.hit", shard, 5);
        }
        count("oracle.ball", 1); // no stage
        count_labeled("cache.hit", Label::Static("w0"), 4);
        let reg = drain();
        let keys: Vec<&str> = reg.counters.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            vec![
                "cache.hit/publish/shard3",
                "cache.hit/w0",
                "oracle.ball",
                "oracle.ball/publish"
            ]
        );
        assert_eq!(reg.counter_prefix_sum("oracle.ball"), 3);
        assert_eq!(reg.counter_prefix_sum("cache.hit"), 9);
        done(guard);
    }

    #[test]
    fn spans_record_durations_and_registry_merge_is_deterministic() {
        let guard = exclusive();
        {
            let _g = span("unit.span");
            std::hint::black_box(0u64);
        }
        finish("unit.hot", start());
        let a = drain();
        assert_eq!(a.histograms["unit.span"].count(), 1);
        assert_eq!(a.histograms["unit.hot"].count(), 1);

        count("m", 1);
        observe("d", 4);
        let b = drain();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "registry merge must be order-independent");
        assert_eq!(ab.counter("m"), 1);
        assert_eq!(ab.histograms["unit.span"].count(), 1);
        done(guard);
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let guard = exclusive();
        set_chrome(true);
        {
            let _a = span("trace.outer");
            let _b = span("trace.inner");
        }
        let json = chrome_trace_json();
        set_chrome(false);
        // An array of one-object-per-line complete events.
        assert_json_array_of_objects(&json, 2);
        assert!(json.contains("\"name\":\"trace.inner\""));
        assert!(json.contains("\"ph\":\"X\""));
        // Draining consumed the events.
        assert_eq!(chrome_trace_json().trim(), "[\n]");
        done(guard);
    }

    #[test]
    fn chrome_trace_file_write_is_atomic_and_handles_empty() {
        let guard = exclusive();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ron_obs_trace_{}.json", std::process::id()));

        // Empty registry: the export is still a complete JSON array.
        let written = write_chrome_trace(&path).unwrap();
        assert_eq!(written, 0);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_json_array_of_objects(&body, 0);

        set_chrome(true);
        {
            let _a = span("trace.file");
        }
        let written = write_chrome_trace(&path).unwrap();
        set_chrome(false);
        assert_eq!(written, 1);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_json_array_of_objects(&body, 1);
        // The temp file the atomic write staged through is gone.
        let mut tmp = path.clone();
        let mut name = tmp.file_name().unwrap().to_os_string();
        name.push(".tmp");
        tmp.set_file_name(name);
        assert!(!tmp.exists(), "staging file left behind: {}", tmp.display());
        std::fs::remove_file(&path).unwrap();
        done(guard);
    }

    #[test]
    fn peek_snapshots_without_consuming() {
        let guard = exclusive();
        count("peek.calls", 2);
        let live = peek();
        assert_eq!(live.counter("peek.calls"), 2);
        count("peek.calls", 1);
        let drained = drain();
        assert_eq!(
            drained.counter("peek.calls"),
            3,
            "peek must not steal records"
        );
        done(guard);
    }

    #[test]
    fn metrics_server_answers_over_tcp() {
        use std::io::{Read as _, Write as _};
        let guard = exclusive();
        count("wire.requests", 3);
        observe("wire.latency_ns", 512);
        // Scrapes run on handler threads and see the global store:
        // recording threads must have flushed (workers already do).
        flush();
        let mut server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();

        let fetch = |path: &str| -> String {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut body = String::new();
            conn.read_to_string(&mut body).unwrap();
            body
        };
        let health = fetch("/health");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("ok\n"));
        let metrics = fetch("/metrics");
        assert!(metrics.contains("ron_counter{key=\"wire.requests\"} 3\n"));
        assert!(metrics.contains("ron_latency_count{key=\"wire.latency_ns\"} 1\n"));
        // A query string (a Prometheus scrape config's `params`) does
        // not change the route.
        assert_eq!(fetch("/metrics?name=x"), metrics);
        assert_eq!(fetch("/health?probe"), health);

        server.shutdown();
        server.shutdown(); // idempotent
        assert!(std::net::TcpStream::connect(addr).map_or(true, |mut c| {
            // Accept loop is gone: the connection may open but nothing
            // answers.
            let _ = write!(c, "GET /health HTTP/1.1\r\n\r\n");
            let mut s = String::new();
            c.read_to_string(&mut s).unwrap_or(0) == 0
        }));
        // Serving peeked, never drained: the records are still here.
        assert_eq!(drain().counter("wire.requests"), 3);
        done(guard);
    }

    #[test]
    fn serve_from_env_is_off_without_the_variable() {
        // RON_METRICS_ADDR is not set in the test environment.
        assert!(serve_from_env().is_none());
    }

    /// Minimal JSON checker: validates one value and returns the rest.
    fn skip_json_value(s: &str) -> &str {
        let s = s.trim_start();
        let mut chars = s.char_indices();
        match chars.next().map(|(_, c)| c) {
            Some('{') => {
                let mut rest = s[1..].trim_start();
                if let Some(r) = rest.strip_prefix('}') {
                    return r;
                }
                loop {
                    rest = rest.trim_start();
                    assert!(
                        rest.starts_with('"'),
                        "object key must be a string: {rest:.40}"
                    );
                    rest = skip_json_value(rest);
                    rest = rest.trim_start();
                    rest = rest.strip_prefix(':').expect("missing ':' in object");
                    rest = skip_json_value(rest);
                    rest = rest.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r;
                    } else {
                        return rest.strip_prefix('}').expect("missing '}'");
                    }
                }
            }
            Some('[') => {
                let mut rest = s[1..].trim_start();
                if let Some(r) = rest.strip_prefix(']') {
                    return r;
                }
                loop {
                    rest = skip_json_value(rest);
                    rest = rest.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r;
                    } else {
                        return rest.strip_prefix(']').expect("missing ']'");
                    }
                }
            }
            Some('"') => {
                let mut escaped = false;
                for (i, c) in chars {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        return &s[i + 1..];
                    }
                }
                panic!("unterminated string");
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let end = s
                    .find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
                    .unwrap_or(s.len());
                s[..end].parse::<f64>().expect("bad number");
                &s[end..]
            }
            _ => {
                for lit in ["true", "false", "null"] {
                    if let Some(r) = s.strip_prefix(lit) {
                        return r;
                    }
                }
                panic!("unrecognised JSON value: {s:.40}");
            }
        }
    }

    fn assert_json_array_of_objects(s: &str, expected: usize) {
        assert!(s.trim_start().starts_with('['));
        assert!(skip_json_value(s).trim().is_empty(), "trailing garbage");
        let events = s
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .count();
        assert_eq!(events, expected, "expected {expected} events in {s}");
    }
}
