//! Drain determinism: the composed registry is byte-stable across
//! worker counts and flush orderings.
//!
//! Every merge the global store performs is commutative and
//! associative (counter sums, gauge maxes, histogram bucket adds), and
//! the drain composes into sorted maps — so no matter how a workload
//! is split across threads, or in which order those threads flush,
//! the drained registry must come out identical.

use proptest::prelude::*;

/// The tests toggle the process-global obs state; serialize them.
fn obs_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static OBS_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    OBS_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const COUNTERS: [&str; 3] = ["det.jobs", "det.retries", "det.cache.miss"];
const HISTS: [&str; 3] = ["det.latency_ns", "det.hops", "det.fanout"];
const GAUGES: [&str; 2] = ["det.queue.depth", "det.heap.bytes"];

/// One deterministic operation of the synthetic workload: which metric
/// the `i`-th op touches (and with what value) depends only on `(seed,
/// i)`, never on the thread running it.
fn op(seed: u64, i: u64) {
    let x = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match x % 3 {
        0 => ron_obs::count(COUNTERS[(x / 3 % 3) as usize], x % 17),
        1 => ron_obs::observe(HISTS[(x / 3 % 3) as usize], x % 100_000),
        _ => ron_obs::gauge_max(GAUGES[(x / 3 % 2) as usize], x % 4096),
    }
}

/// Runs ops `0..ops` split across `threads` workers — round-robin or
/// contiguous chunks — each flushing whenever its share is done (so
/// flush order is whatever the scheduler picks), then drains.
fn run_split(seed: u64, ops: u64, threads: u64, chunked: bool) -> ron_obs::Registry {
    ron_obs::set_enabled(true);
    ron_obs::reset();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in 0..ops {
                    let mine = if chunked {
                        i * threads / ops == t
                    } else {
                        i % threads == t
                    };
                    if mine {
                        op(seed, i);
                    }
                }
                ron_obs::flush();
            });
        }
    });
    let registry = ron_obs::drain();
    ron_obs::set_enabled(false);
    registry
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn drained_registry_is_byte_stable_across_worker_splits(
        seed in 0u64..1_000_000,
        ops in 1u64..400,
        threads in 2u64..6,
    ) {
        let _lock = obs_state_lock();
        let serial = run_split(seed, ops, 1, false);
        let round_robin = run_split(seed, ops, threads, false);
        let chunked = run_split(seed, ops, threads, true);
        prop_assert_eq!(&serial, &round_robin, "round-robin split changed the drain");
        prop_assert_eq!(&serial, &chunked, "chunked split changed the drain");
    }
}
