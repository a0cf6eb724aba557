//! Chrome-trace export: spans captured as complete (`"ph":"X"`) events
//! and dumped in the Chrome trace-event JSON array format — one event
//! per line — loadable in `chrome://tracing`, Perfetto, or Speedscope.
//!
//! Capture is opt-in (`RON_TRACE=chrome` or [`set_chrome`]) on top of
//! metric recording, because trace events cost memory per span rather
//! than per distinct name. Only the coarse [`span`](crate::span) guards
//! emit trace events; the hot-path [`start`](crate::start)/
//! [`finish`](crate::finish) timers feed histograms only.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry;

/// One complete span event, timestamps in ns since the process epoch.
#[derive(Clone, Debug)]
pub(crate) struct ChromeEvent {
    pub name: &'static str,
    pub tid: u32,
    pub ts_ns: u64,
    pub dur_ns: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Pins the process epoch; called when Chrome capture is enabled so
/// timestamps are relative to enablement, not to the first span.
pub(crate) fn init_epoch() {
    let _ = EPOCH.get_or_init(Instant::now);
}

/// Nanoseconds since the process epoch.
pub(crate) fn epoch_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Buffers a finished span as a trace event on the calling thread.
pub(crate) fn push_event(name: &'static str, ts_ns: u64, dur_ns: u64) {
    registry::with_collector(|c| {
        if c.tid == u32::MAX {
            // ordering: Relaxed -- a unique-id allocator; only the
            // atomicity of the increment matters, no other memory is
            // published with the id.
            c.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        let tid = c.tid;
        c.chrome.push(ChromeEvent {
            name,
            tid,
            ts_ns,
            dur_ns,
        });
    });
}

fn render_event(e: &ChromeEvent) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"ron\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
        e.name.replace('\\', "\\\\").replace('"', "\\\""),
        e.tid,
        e.ts_ns as f64 / 1e3,
        e.dur_ns as f64 / 1e3,
    )
}

/// The events as a Chrome trace-event JSON array, one event per line.
fn render_trace(events: &[ChromeEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&render_event(e));
    }
    out.push_str("\n]\n");
    out
}

/// Serializes and drains the buffered trace events (calling thread
/// flushed first) as a Chrome trace-event JSON array, one event per
/// line. Returns the empty array `"[]"` when nothing was captured.
#[must_use]
pub fn chrome_trace_json() -> String {
    render_trace(&registry::take_chrome_events())
}

/// Writes [`chrome_trace_json`] to `path`, returning the number of
/// events written. The write is atomic — the JSON goes to a sibling
/// temp file which is renamed over `path` only once fully flushed — so
/// a run that crashes mid-dump never leaves a truncated trace behind.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<usize> {
    let events = registry::take_chrome_events();
    let mut tmp = path.to_path_buf();
    let mut name = path
        .file_name()
        .map_or_else(|| "trace".into(), std::ffi::OsStr::to_os_string);
    name.push(".tmp");
    tmp.set_file_name(name);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(render_trace(&events).as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_escapes_quotes_and_backslashes_in_names() {
        let e = ChromeEvent {
            name: "walk/shard\"0\\a",
            tid: 3,
            ts_ns: 1500,
            dur_ns: 2500,
        };
        let line = render_event(&e);
        assert!(line.contains("\"name\":\"walk/shard\\\"0\\\\a\""), "{line}");
        assert!(line.contains("\"tid\":3"));
        assert!(line.contains("\"ts\":1.500"));
        assert!(line.contains("\"dur\":2.500"));
        // The escaped line is itself a complete one-object JSON value.
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches("shard\\\"0\\\\a").count(), 1);
    }
}
