//! The span recorder: parents, self time, merging per-thread recorders.

use std::time::{Duration, Instant};

use ron_benchmark::trace::Tracer;

#[test]
fn self_time_is_a_span_minus_its_children() {
    let origin = Instant::now();
    let at = |us: u64| origin + Duration::from_micros(us);
    let mut tracer = Tracer::new(origin);
    tracer.record_tree(
        "request",
        &["core.epoch_load", "location.walk"],
        &[at(10), at(12), at(20)],
        7,
    );
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(
        (spans[0].name, spans[0].parent, spans[0].request),
        ("request", None, 7)
    );
    assert_eq!((spans[0].start_ns, spans[0].end_ns), (10_000, 20_000));
    assert_eq!(
        (spans[1].name, spans[1].parent),
        ("core.epoch_load", Some(0))
    );
    assert_eq!((spans[2].start_ns, spans[2].end_ns), (12_000, 20_000));
    // The children tile the parent, so nothing is left for itself; a
    // leaf keeps all of its time.
    assert_eq!(tracer.self_ns(0), 0);
    assert_eq!(tracer.self_ns(2), 8_000);

    // A parent with a gap between its children keeps the gap.
    let root = tracer.record("build", at(30), at(100), None, 0);
    tracer.record("nets.build", at(30), at(50), Some(root), 0);
    tracer.record("core.rings_build", at(60), at(100), Some(root), 0);
    assert_eq!(tracer.self_ns(root), 10_000);
}

#[test]
fn absorbing_another_thread_rebases_its_parents() {
    let origin = Instant::now();
    let at = |us: u64| origin + Duration::from_micros(us);
    let mut main = Tracer::new(origin);
    main.record("build", at(0), at(5), None, 0);
    let mut writer = main.fork();
    writer.record_tree("epoch", &["location.capture"], &[at(6), at(9)], 1);
    main.absorb(writer);
    let spans = main.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!((spans[1].name, spans[1].parent), ("epoch", None));
    assert_eq!(
        (spans[2].name, spans[2].parent),
        ("location.capture", Some(1))
    );
    // Both recorders share the time origin.
    assert_eq!(spans[2].start_ns, 6_000);

    let json = main.to_json();
    assert!(json.starts_with("[\n") && json.ends_with("]\n"));
    assert_eq!(json.matches("\"name\"").count(), 3);
    assert!(json.contains(
        "{\"id\":2,\"name\":\"location.capture\",\"start_ns\":6000,\"end_ns\":9000,\"parent\":1,\"request\":1}"
    ));
    assert!(json.contains("\"parent\":null"));
}
