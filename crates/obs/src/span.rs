//! Span timing: RAII guards that record wall-clock durations into the
//! registry (and, when Chrome capture is on, into the trace buffer),
//! plus the stage guard that attributes hot-path records to a
//! construction or serving stage.

use std::time::Instant;

use crate::chrome;
use crate::registry;

/// A timer guard returned by [`span`]: on drop, records the elapsed
/// nanoseconds into the histogram named after the span, and emits a
/// Chrome trace event when capture is enabled. A disabled span is
/// inert (no clock read).
#[must_use = "a span records its duration when dropped; binding it to _ ends it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    ts_ns: u64,
    chrome: bool,
}

/// Starts a named span. Use for coarse, low-frequency scopes (a
/// construction stage, a snapshot capture, a repair plan); for
/// per-call hot-path timing use [`start`]/[`finish`], which skip the
/// Chrome buffer.
pub fn span(name: &'static str) -> SpanGuard {
    if !registry::enabled() {
        return SpanGuard {
            name,
            start: None,
            ts_ns: 0,
            chrome: false,
        };
    }
    let chrome = registry::chrome_enabled();
    let ts_ns = if chrome { chrome::epoch_ns() } else { 0 };
    SpanGuard {
        name,
        start: Some(Instant::now()),
        ts_ns,
        chrome,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(started) = self.start {
            let dur_ns = started.elapsed().as_nanos() as u64;
            registry::observe(self.name, dur_ns);
            if self.chrome {
                chrome::push_event(self.name, self.ts_ns, dur_ns);
            }
        }
    }
}

/// Starts a hot-path timer: `None` when observability is off (no clock
/// read), so the disabled cost is one relaxed load. Pair with
/// [`finish`].
#[inline]
pub fn start() -> Option<Instant> {
    if registry::enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Completes a [`start`] timer, recording elapsed ns into the
/// histogram `name` (attributed to the current stage). No Chrome event
/// — hot paths would flood the trace buffer.
#[inline]
pub fn finish(name: &'static str, started: Option<Instant>) {
    if let Some(t) = started {
        registry::observe(name, t.elapsed().as_nanos() as u64);
    }
}

/// A guard that restores the previous stage on drop; see [`stage`].
#[must_use = "the stage reverts when the guard drops; binding it to _ reverts immediately"]
pub struct StageGuard {
    prev: u32,
    active: bool,
}

/// Sets the attribution stage to `name` until the guard drops. Records
/// made while a stage is active — on any thread, so `par` workers
/// inside the scope count too — get `/{stage}` appended to their
/// drained key, which is how oracle call counts are attributed to
/// construction stages (`index`, `nets`, `rings`, `directory`,
/// `publish`, `repair`). The stage is process-global; set it from one
/// orchestrating thread at a time.
pub fn stage(name: &'static str) -> StageGuard {
    if !registry::enabled() {
        return StageGuard {
            prev: 0,
            active: false,
        };
    }
    StageGuard {
        prev: registry::swap_stage(name),
        active: true,
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if self.active {
            registry::restore_stage(self.prev);
        }
    }
}
