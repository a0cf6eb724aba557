//! The metrics registry: thread-local collectors merged into a global
//! store, drained deterministically.
//!
//! Recording is always done against a thread-local [`Collector`] — no
//! lock, no contention, and nothing observable from other threads. A
//! collector merges itself into the process-wide store when [`flush`]
//! is called on its thread, with a TLS-drop flush at thread exit as a
//! backstop. Worker pools must call [`flush`] at the end of the worker
//! closure (the `par` executor and the `QueryEngine` both do): joining
//! via `std::thread::scope` can observe a thread as finished before
//! its TLS destructors have run, so the drop-flush alone would race
//! the spawner's [`drain`]. Merging is keyed by
//! `(name, stage, label)` and commutative (counter addition, gauge max,
//! histogram bucket sums), and [`drain`] composes keys into strings and
//! sorts them, so the drained [`Registry`] is byte-identical no matter
//! how records were spread across threads (`RON_THREADS`-stable).
//!
//! When disabled — the default — every record call is a single relaxed
//! atomic load and a branch.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

use crate::chrome::ChromeEvent;
use crate::hist::Pow2Histogram;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CHROME: AtomicBool = AtomicBool::new(false);

/// Whether metric recording is on. One relaxed load; this is the whole
/// cost of an instrumentation point when observability is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    // ordering: Relaxed -- an independent on/off flag; it publishes no
    // data of its own, and callers that need records visible flush()
    // through the mutex-guarded global store.
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off. Off is the default; already
/// collected records are kept (use [`reset`] to discard them).
pub fn set_enabled(on: bool) {
    // ordering: Relaxed -- flag toggled before work is spawned; the
    // thread spawn itself provides the happens-before edge workers need.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether Chrome-trace event capture is on (implies [`enabled`]).
#[inline]
#[must_use]
pub fn chrome_enabled() -> bool {
    // ordering: Relaxed -- same independent-flag discipline as ENABLED.
    CHROME.load(Ordering::Relaxed)
}

/// Turns Chrome-trace capture on or off; enabling it also enables
/// metric recording so span durations land in both places.
pub fn set_chrome(on: bool) {
    // ordering: Relaxed -- flag set during single-threaded setup, read
    // by workers only after they are spawned (spawn synchronizes).
    CHROME.store(on, Ordering::Relaxed);
    if on {
        set_enabled(true);
        crate::chrome::init_epoch();
    }
}

/// Applies the observability environment knobs: `RON_TRACE=chrome`
/// enables Chrome-trace capture (and with it metric recording), and
/// `RON_OBS=1`/`RON_OBS=on` enables metric recording alone.
pub fn init_from_env() {
    if std::env::var("RON_TRACE").is_ok_and(|v| v == "chrome") {
        set_chrome(true);
    }
    if std::env::var("RON_OBS").is_ok_and(|v| v == "1" || v == "on") {
        set_enabled(true);
    }
}

/// A metric label: nothing, a static string, or an interned dynamic
/// string (see [`label`]). `Copy`, hashable, and cheap to pass around.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Label {
    /// No label; the metric name stands alone.
    #[default]
    None,
    /// A compile-time label, e.g. a gram type or worker class.
    Static(&'static str),
    /// An interned runtime label; create via [`label`].
    Dyn(u32),
}

#[derive(Default)]
struct Interner {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

static INTERNER: Mutex<Option<Interner>> = Mutex::new(None);

/// Interns a runtime string (a shard index, a sim phase name, a worker
/// id) into a `Copy` label. Interning takes a lock — do it once per
/// scope and reuse the returned [`Label`] on the hot path.
#[must_use]
pub fn label(name: &str) -> Label {
    let mut guard = INTERNER.lock().unwrap();
    let interner = guard.get_or_insert_with(Interner::default);
    if let Some(&id) = interner.by_name.get(name) {
        return Label::Dyn(id);
    }
    let id = u32::try_from(interner.names.len()).expect("label interner overflow");
    interner.names.push(name.to_string());
    interner.by_name.insert(name.to_string(), id);
    Label::Dyn(id)
}

pub(crate) fn label_text(l: Label) -> Option<String> {
    match l {
        Label::None => None,
        Label::Static(s) => Some(s.to_string()),
        Label::Dyn(id) => {
            let guard = INTERNER.lock().unwrap();
            let name = guard
                .as_ref()
                .and_then(|i| i.names.get(id as usize))
                .map(|s| s.as_str())
                .unwrap_or("?");
            Some(name.to_string())
        }
    }
}

/// The current attribution stage, process-global so records made on
/// `par` worker threads inside a staged scope (index rows, ring
/// scatter, publish batches) land under the stage no matter which
/// thread does the work — which also keeps drained keys identical
/// across `RON_THREADS`. Stages are meant to be set from a single
/// orchestrating thread at a time (the builders all do).
static CURRENT_STAGE: AtomicU32 = AtomicU32::new(0);
static STAGE_NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Sets the process stage to `name`, returning the previous stage id
/// for [`restore_stage`]. Used by the [`stage`](crate::stage) guard.
pub(crate) fn swap_stage(name: &'static str) -> u32 {
    let mut names = STAGE_NAMES.lock().unwrap();
    if names.is_empty() {
        names.push("");
    }
    let id = match names.iter().position(|&s| s == name) {
        Some(i) => i as u32,
        None => {
            names.push(name);
            (names.len() - 1) as u32
        }
    };
    // ordering: Relaxed -- stages are set by the single orchestrating
    // thread; workers spawned inside the staged scope observe the store
    // through the scope-spawn happens-before edge, so no fence is
    // needed here (audited: upgrading to Release would add nothing).
    CURRENT_STAGE.swap(id, Ordering::Relaxed)
}

pub(crate) fn restore_stage(id: u32) {
    // ordering: Relaxed -- see swap_stage; restore runs on the same
    // orchestrating thread that set the stage.
    CURRENT_STAGE.store(id, Ordering::Relaxed);
}

fn stage_text(id: u32) -> &'static str {
    STAGE_NAMES
        .lock()
        .unwrap()
        .get(id as usize)
        .copied()
        .unwrap_or("")
}

/// The full key of a record: metric name, the stage active when it was
/// recorded (id 0 = none), and the label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    stage: u32,
    label: Label,
}

impl Key {
    /// Composes the key into the flat `name[/stage][/label]` form used
    /// in drained output. String composition (not intern or stage ids)
    /// is what gets sorted, so output order is independent of the
    /// order names were first seen.
    fn compose(&self) -> String {
        let mut out = String::from(self.name);
        let stage = stage_text(self.stage);
        if !stage.is_empty() {
            out.push('/');
            out.push_str(stage);
        }
        if let Some(l) = label_text(self.label) {
            out.push('/');
            out.push_str(&l);
        }
        out
    }
}

pub(crate) struct Collector {
    pending_counters: HashMap<Key, u64>,
    pending_gauges: HashMap<Key, u64>,
    pending_hists: HashMap<Key, Pow2Histogram>,
    pub(crate) chrome: Vec<ChromeEvent>,
    pub(crate) tid: u32,
}

impl Collector {
    fn fresh() -> Self {
        Collector {
            pending_counters: HashMap::new(),
            pending_gauges: HashMap::new(),
            pending_hists: HashMap::new(),
            chrome: Vec::new(),
            // Lazily replaced with a process-unique id on the first
            // Chrome event (see chrome::push_event).
            tid: u32::MAX,
        }
    }

    fn merge_into_global(&mut self) {
        if self.pending_counters.is_empty()
            && self.pending_gauges.is_empty()
            && self.pending_hists.is_empty()
            && self.chrome.is_empty()
        {
            return;
        }
        let mut global = GLOBAL.lock().unwrap();
        let global = &mut *global;
        // ron-lint: allow(map-order): drain order cannot escape -- the
        // fold is commutative (sum, max, per-bucket add) into the
        // BTreeMap-keyed global store, which drains sorted.
        fold(
            &mut global.counters,
            &mut global.gauges,
            &mut global.hists,
            self.pending_counters.drain(),
            self.pending_gauges.drain(),
            self.pending_hists.drain(),
        );
        global.chrome.append(&mut self.chrome);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.merge_into_global();
    }
}

thread_local! {
    static TLS: RefCell<Collector> = RefCell::new(Collector::fresh());
}

/// Runs `f` with the calling thread's collector. Silently a no-op if
/// the TLS slot is already torn down (thread exit edge case).
pub(crate) fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    TLS.try_with(|c| f(&mut c.borrow_mut())).ok()
}

#[derive(Default)]
struct GlobalStore {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    hists: BTreeMap<Key, Pow2Histogram>,
    chrome: Vec<ChromeEvent>,
}

impl GlobalStore {
    /// The store's metrics under composed `name[/stage][/label]` keys.
    /// Distinct keys can compose to one string (a static and an
    /// interned label of the same text), so this is a fold, not a copy.
    fn compose(&self) -> Registry {
        let mut reg = Registry::default();
        fold(
            &mut reg.counters,
            &mut reg.gauges,
            &mut reg.histograms,
            self.counters.iter().map(|(k, &v)| (k.compose(), v)),
            self.gauges.iter().map(|(k, &v)| (k.compose(), v)),
            self.hists.iter().map(|(k, h)| (k.compose(), h)),
        );
        reg
    }
}

/// The registry's one merge rule: counters add, gauges keep the
/// maximum, histograms add bucket-wise. All three commute, so the
/// order records arrive in — which thread flushed first, how a hash
/// map iterates — never shows in the result.
fn fold<K: Ord, H: Borrow<Pow2Histogram>>(
    counters: &mut BTreeMap<K, u64>,
    gauges: &mut BTreeMap<K, u64>,
    hists: &mut BTreeMap<K, Pow2Histogram>,
    add: impl Iterator<Item = (K, u64)>,
    max: impl Iterator<Item = (K, u64)>,
    merge: impl Iterator<Item = (K, H)>,
) {
    for (k, v) in add {
        *counters.entry(k).or_insert(0) += v;
    }
    for (k, v) in max {
        let slot = gauges.entry(k).or_insert(0);
        *slot = (*slot).max(v);
    }
    for (k, h) in merge {
        hists.entry(k).or_default().merge(h.borrow());
    }
}

static GLOBAL: Mutex<GlobalStore> = Mutex::new(GlobalStore {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    hists: BTreeMap::new(),
    chrome: Vec::new(),
});

/// Adds `by` to the counter `name` (attributed to the current stage).
#[inline]
pub fn count(name: &'static str, by: u64) {
    count_labeled(name, Label::None, by);
}

/// Adds `by` to the counter `name` under `label`.
#[inline]
pub fn count_labeled(name: &'static str, label: Label, by: u64) {
    if !enabled() {
        return;
    }
    // ordering: Relaxed -- the stage id was stored by the orchestrating
    // thread before this worker was spawned; spawn synchronizes.
    let stage = CURRENT_STAGE.load(Ordering::Relaxed);
    with_collector(|c| {
        let key = Key { name, stage, label };
        *c.pending_counters.entry(key).or_insert(0) += by;
    });
}

/// Raises the gauge `name` to `value` if larger (a high-water mark;
/// max is the only gauge merge that is order-independent across
/// threads, which keeps drains deterministic).
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    // ordering: Relaxed -- see count_labeled.
    let stage = CURRENT_STAGE.load(Ordering::Relaxed);
    with_collector(|c| {
        let key = Key {
            name,
            stage,
            label: Label::None,
        };
        let slot = c.pending_gauges.entry(key).or_insert(0);
        *slot = (*slot).max(value);
    });
}

/// Records `value` into the histogram `name`.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    observe_labeled(name, Label::None, value);
}

/// Records `value` into the histogram `name` under `label`.
#[inline]
pub fn observe_labeled(name: &'static str, label: Label, value: u64) {
    if !enabled() {
        return;
    }
    // ordering: Relaxed -- see count_labeled.
    let stage = CURRENT_STAGE.load(Ordering::Relaxed);
    with_collector(|c| {
        let key = Key { name, stage, label };
        c.pending_hists.entry(key).or_default().record(value);
    });
}

/// Merges the calling thread's collected records into the global store.
/// Worker threads flush automatically when they exit; the main thread
/// should call this (or [`drain`], which does) before exporting.
pub fn flush() {
    with_collector(Collector::merge_into_global);
}

/// Flushes the calling thread and takes the global store as a sorted,
/// composed-key [`Registry`] snapshot, leaving the store empty. Chrome
/// events are left in place (drained by the trace writer instead).
#[must_use]
pub fn drain() -> Registry {
    flush();
    let mut global = GLOBAL.lock().unwrap();
    let reg = global.compose();
    global.counters.clear();
    global.gauges.clear();
    global.hists.clear();
    reg
}

/// Flushes the calling thread and snapshots the global store as a
/// composed-key [`Registry`] **without emptying it** — the live view
/// the `/metrics` wire reads. Accumulation continues; a later
/// [`drain`] still sees everything.
#[must_use]
pub fn peek() -> Registry {
    flush();
    GLOBAL.lock().unwrap().compose()
}

/// Discards everything collected so far: the calling thread's pending
/// records, the global store and buffered Chrome events. Other
/// threads' un-flushed records are not reachable and are not cleared.
pub fn reset() {
    with_collector(|c| {
        c.pending_counters.clear();
        c.pending_gauges.clear();
        c.pending_hists.clear();
        c.chrome.clear();
    });
    let mut global = GLOBAL.lock().unwrap();
    global.counters.clear();
    global.gauges.clear();
    global.hists.clear();
    global.chrome.clear();
}

/// Takes the buffered Chrome events (calling thread flushed first),
/// sorted by start time for a stable dump.
pub(crate) fn take_chrome_events() -> Vec<ChromeEvent> {
    flush();
    let mut events = std::mem::take(&mut GLOBAL.lock().unwrap().chrome);
    events.sort_by_key(|e| (e.ts_ns, e.tid, e.dur_ns));
    events
}

/// A drained, immutable snapshot of the registry: composed
/// `name[/stage][/label]` keys mapped to their merged values, in
/// lexicographic order. This is what the exporters render.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Registry {
    /// Monotonic counters (call counts, cache hits, grams by type).
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges (event-queue depth).
    pub gauges: BTreeMap<String, u64>,
    /// Distributions (span durations in ns, hop counts, fan-out sizes).
    pub histograms: BTreeMap<String, Pow2Histogram>,
}

impl Registry {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The counter under the composed key `name`, or 0.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sums every counter whose composed key starts with `prefix`.
    #[must_use]
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The histogram under the composed key `name`, if recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Pow2Histogram> {
        self.histograms.get(name)
    }

    /// Merges another drained snapshot into this one (label-ordered,
    /// commutative: counter sums, gauge max, histogram bucket sums).
    pub fn merge(&mut self, other: &Registry) {
        fold(
            &mut self.counters,
            &mut self.gauges,
            &mut self.histograms,
            other.counters.iter().map(|(k, &v)| (k.clone(), v)),
            other.gauges.iter().map(|(k, &v)| (k.clone(), v)),
            other.histograms.iter().map(|(k, h)| (k.clone(), h)),
        );
    }

    /// Renders the snapshot as an aligned text table, one metric per
    /// line, sections in counter/gauge/histogram order.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges (max):\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<44} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!("  {k:<44} {}\n", h.render_summary()));
            }
        }
        if out.is_empty() {
            out.push_str("(no observations)\n");
        }
        out
    }
}
