//! The concurrent query engine: a worker pool serving batched lookups
//! over epoch-published snapshots, with a sharded, epoch-tagged LRU
//! result cache.
//!
//! The engine separates *structure maintenance* (the mutable
//! [`DirectoryOverlay`]) from *serving*, and the two run concurrently.
//! A [`Snapshot`] is an **owned**, epoch-stamped copy of everything a
//! lookup reads: four-byte fingers (`levels` per node, a sentinel for a
//! level churn emptied) and every node's pointer entries, both frozen in
//! `Arc`-shared chunks of eight nodes (`tables::FrozenRows`), plus
//! liveness and an `Arc`-shared homes map. [`publish_snapshot`]
//! recomputes only the fingers a membership change since the current
//! publication can have moved, builds only the chunks holding one or a
//! table written since, and keeps the old chunk where a built one comes
//! out equal, so a swap hands readers new memory only where the epoch
//! changed something. A lookup over a snapshot allocates nothing.
//! Snapshots live in an [`EpochCell`], whose writer frees what it
//! supersedes; a repair can build and publish a successor *while a batch
//! is in flight*: lookups proceed at full rate through churn and repair,
//! each answer valid against exactly one published state, never a torn
//! mixture (property-tested across all four generator families).
//!
//! Worker threads (`std::thread::scope`; no external dependencies, per
//! the vendored-shim discipline) split the batch. Each pins the current
//! snapshot for its chunk of the batch and reloads it only when the
//! cell's epoch has moved, so a mid-batch publish is seen by the next
//! query; on a reload it reads the chunks the successor did not share
//! once, up front, rather than missing on them inside the next thousand
//! walks. Every successful lookup is memoised in an LRU cache keyed by
//! `(origin, object)`, hash-sharded across [`EngineConfig::cache_shards`]
//! locks so workers don't funnel through a single mutex, and tagged with
//! the publication epoch so hits cached against a superseded snapshot
//! are rejected. The [`BatchReport`] carries throughput, p50/p99 latency
//! and hops/stretch statistics ([`PathStats`]).
//!
//! [`publish_snapshot`]: DirectoryOverlay::publish_snapshot

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use ron_core::publish::EpochCell;
use ron_core::stats::PathStats;
use ron_core::RingFamily;
use ron_metric::mem::vec_capacity_bytes;
use ron_metric::{BallOracle, HeapBytes, Metric, Node, Space};

use crate::authority::{near_changes, RepairAuthority};
use crate::directory::{DirectoryOverlay, IdMap, ObjectId};
use crate::lookup::{locate_view, Finger, LocateError, LookupOutcome, LookupView};
use crate::stats::{BatchReport, CacheShardStats, LatencySummary};
use crate::tables::{Bits, ChunkTally, FrozenRows, FrozenTables};

/// An immutable, owned serving view of a [`DirectoryOverlay`]: the
/// per-node, per-level fingers are precomputed so a lookup is a pure
/// table walk, and the state a lookup reads (liveness, homes, pointer
/// entries) is copied out — into chunks that successive snapshots share
/// where they agree — so the overlay is free to mutate — churn, repair,
/// publish — while the snapshot serves.
///
/// A snapshot is stamped with the overlay [epoch] it was captured at.
/// Publish one through an [`EpochCell`] (see
/// [`DirectoryOverlay::publish_snapshot`]) and readers pick up the
/// successor on their next load, without ever observing a half-applied
/// mutation.
///
/// [epoch]: DirectoryOverlay::epoch
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Overlay epoch at capture time.
    epoch: u64,
    levels: usize,
    /// Node `v`'s row: `levels` fingers, the nearest alive level-`j`
    /// member at `j`.
    fingers: FrozenRows<Finger>,
    /// Bit `v * levels + j`: the oracle answered finger `(v, j)`, since
    /// `v`'s ring at `j` was empty.
    fallback: Bits,
    /// The overlay's ring arena and each level's membership at capture:
    /// what a successor captured over the same arena diffs its
    /// membership against to find the fingers that can have moved.
    rings: Arc<RingFamily>,
    member: Vec<Bits>,
    alive: Vec<bool>,
    homes: Arc<IdMap<ObjectId, Node>>,
    /// Every node's directory pointer entries.
    tables: FrozenTables,
}

impl Snapshot {
    /// Freezes the overlay's current state: fingers, liveness, homes and
    /// the pointer tables, stamped with the overlay's current epoch.
    #[must_use]
    pub fn capture<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        overlay: &DirectoryOverlay,
    ) -> Self {
        Self::capture_sharing(space, overlay, None)
    }

    /// [`capture`](Self::capture), sharing with `prev` every chunk of
    /// fingers or entries that is unchanged since `prev` — the one
    /// capture path, costing what changed. The homes map is the control
    /// plane's own `Arc`, which a later write copies before changing.
    /// Only the fingers `prev` cannot vouch for are recomputed: all of
    /// them on a first capture or over another ring arena, else the stale
    /// ones (see [`stale_fingers`](Self::stale_fingers)). A chunk of
    /// entries is built only if its tables were written since `prev` was
    /// frozen from them (every chunk when `prev` came from other tables,
    /// a clone's included); either way a built chunk equal to `prev`'s is
    /// shared.
    fn capture_sharing<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        overlay: &DirectoryOverlay,
        prev: Option<&Snapshot>,
    ) -> Self {
        let _span = ron_obs::span("directory.capture");
        let control = &overlay.control;
        let (n, levels) = (overlay.len(), overlay.levels());
        let member = control.member.clone();
        let same = prev.filter(|p| Arc::ptr_eq(&p.rings, &control.rings));
        let (stale, mut fallback) = match same {
            Some(p) => (p.stale_fingers(space, control, &member), p.fallback.clone()),
            None => (Bits::ones(n * levels), Bits::zeros(n * levels)),
        };
        let mut finger_tally = ChunkTally::default();
        let mut recomputed = 0u64;
        let fingers = FrozenRows::freeze(
            n,
            prev.map(|p| &p.fingers),
            &mut finger_tally,
            |nodes| stale.any_in(nodes.start * levels..nodes.end * levels),
            |v, row| {
                let old = same.map(|p| p.fingers.row(v));
                for j in 0..levels {
                    let i = v.index() * levels + j;
                    if let Some(old) = old.filter(|_| !stale.get(i)) {
                        row.push(old[j]);
                        continue;
                    }
                    let (finger, fell_back) = control.finger_and_fallback(space, v, j);
                    fallback.set(i, fell_back);
                    recomputed += 1;
                    row.push(Finger::new(finger.map(|(_, f)| f)));
                }
            },
        );
        let mut table_tally = ChunkTally::default();
        let tables =
            FrozenTables::freeze_tables(&overlay.tables, prev.map(|p| &p.tables), &mut table_tally);
        if ron_obs::enabled() {
            let (f, t) = (finger_tally, table_tally);
            ron_obs::count("snapshot.chunks_shared", f.shared + t.shared);
            ron_obs::count("snapshot.chunks_written", f.written + t.written);
            ron_obs::count("snapshot.finger_chunks_written", f.written);
            ron_obs::count("snapshot.table_chunks_written", t.written);
            ron_obs::count("snapshot.fingers_recomputed", recomputed);
        }
        Snapshot {
            epoch: overlay.epoch(),
            levels,
            fingers,
            fallback,
            rings: Arc::clone(&control.rings),
            member,
            alive: control.alive.clone(),
            homes: Arc::clone(&control.homes),
            tables,
        }
    }

    /// The fingers (bit `v * levels + j`) that a capture of `control`,
    /// whose level membership is `member`, cannot copy from this
    /// snapshot, taken over the same ring arena. A finger is the nearest
    /// member of its level, so on a level whose membership is unchanged
    /// none moves; on one that changed, `(v, j)` is stale if its member
    /// left or an added member is at least as near to `v` (then it may be
    /// the nearest, ties included). A finger found in the ring is within
    /// `c·r_j` of `v`, so one ball around each departed and each added
    /// member, at `c·r_j` for the coarsest `j` it changed at, finds
    /// those; a finger the oracle answered (the
    /// ring was empty) may lie farther, so those are tested one by one,
    /// and also when an added member enters the ring. Any other finger is
    /// still the nearest member.
    fn stale_fingers<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        control: &RepairAuthority,
        member: &[Bits],
    ) -> Bits {
        let (n, levels) = (control.len(), self.levels);
        let mut stale = Bits::zeros(n * levels);
        let changed: Vec<bool> = (0..levels).map(|j| self.member[j] != member[j]).collect();
        let diff = |a: &[Bits], b: &[Bits]| -> Vec<Vec<Node>> {
            let minus = |j: usize| a[j].minus(&b[j]).map(Node::new).collect();
            (0..levels)
                .map(|j| if changed[j] { minus(j) } else { Vec::new() })
                .collect()
        };
        let (departed, added) = (diff(&self.member, member), diff(member, &self.member));
        // A hair past c·r_j, so that a ball distance rounded apart from
        // `space.dist` cannot drop a node the tests below need.
        let reach = |j: usize| control.ring_factor * control.radii[j] * (1.0 + 1e-9);
        near_changes(space, &departed, reach, |d, v, j| {
            if self.fingers.row(v)[j].get() == Some(d) {
                stale.set(v.index() * levels + j, true);
            }
        });
        near_changes(space, &added, reach, |a, v, j| {
            let finger = self.fingers.row(v)[j].get();
            if finger.is_none_or(|f| space.dist(v, a) <= space.dist(v, f)) {
                stale.set(v.index() * levels + j, true);
            }
        });
        for i in self.fallback.iter_ones() {
            let (v, j) = (Node::new(i / levels), i % levels);
            if !changed[j] {
                continue;
            }
            let stale_now = match self.fingers.row(v)[j].get() {
                None => true,
                Some(f) => {
                    let near = space.dist(v, f).max(reach(j));
                    let nearer = |&a: &Node| space.dist(v, a) <= near;
                    !member[j].get(f.index()) || added[j].iter().any(nearer)
                }
            };
            if stale_now {
                stale.set(i, true);
            }
        }
        stale
    }

    /// Reads once every cache line this snapshot does not share with
    /// `prev`: the chunks its capture rewrote and the liveness flags. A
    /// worker switching to it thereby takes the epoch's changes as one
    /// pass of independent loads, instead of one dependent miss at a time
    /// inside the walks that follow (beside a writer swapping every few
    /// milliseconds, those misses set `serve-churn`'s p99).
    fn warm_since(&self, prev: &Snapshot) {
        self.fingers.warm_since(&prev.fingers);
        self.tables.warm_since(&prev.tables);
        for &alive in self.alive.iter().step_by(64) {
            std::hint::black_box(alive);
        }
    }

    /// The overlay epoch this snapshot was captured at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn walk<M: Metric, I>(
        &self,
        space: &Space<M, I>,
        origin: Node,
        obj: ObjectId,
        visit: impl FnMut(Node),
    ) -> Result<LookupOutcome, LocateError> {
        let view = LookupView {
            levels: self.levels,
            alive: &self.alive,
            homes: &self.homes,
            rows: |v| self.tables.table(v),
        };
        let fingers = |s| {
            let row = self.fingers.row(s);
            move |j: usize| row[j].get()
        };
        locate_view(&view, space, origin, obj, fingers, visit)
    }

    /// Serves one lookup from the frozen fingers and pointer rows.
    /// Allocates nothing.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DirectoryOverlay::lookup`].
    pub fn lookup<M: Metric, I>(
        &self,
        space: &Space<M, I>,
        origin: Node,
        obj: ObjectId,
    ) -> Result<LookupOutcome, LocateError> {
        self.walk(space, origin, obj, |_| {})
    }

    /// [`lookup`](Self::lookup), also returning the visited nodes, as
    /// [`DirectoryOverlay::lookup_path`] does.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DirectoryOverlay::lookup`].
    pub fn lookup_path<M: Metric, I>(
        &self,
        space: &Space<M, I>,
        origin: Node,
        obj: ObjectId,
    ) -> Result<(LookupOutcome, Vec<Node>), LocateError> {
        let mut path = Vec::new();
        let outcome = self.walk(space, origin, obj, |v| path.push(v))?;
        Ok((outcome, path))
    }
}

#[cfg(test)]
impl Snapshot {
    /// Panics unless this snapshot serves exactly what `fresh` serves:
    /// every finger and its provenance, membership, liveness, homes and
    /// every node's pointer entries.
    pub(crate) fn assert_same_as(&self, fresh: &Snapshot, when: &str) {
        assert_eq!(self.levels, fresh.levels, "{when}: levels");
        assert_eq!(self.fallback, fresh.fallback, "{when}: fallback bits");
        assert_eq!(self.member, fresh.member, "{when}: membership");
        assert_eq!(self.alive, fresh.alive, "{when}: liveness");
        assert_eq!(self.homes, fresh.homes, "{when}: homes");
        for v in Node::all(fresh.alive.len()) {
            let fingers = (self.fingers.row(v), fresh.fingers.row(v));
            assert_eq!(fingers.0, fingers.1, "{when}: fingers of {v}");
            let entries = (self.tables.entries(v), fresh.tables.entries(v));
            assert_eq!(entries.0, entries.1, "{when}: entries of {v}");
        }
    }
}

impl HeapBytes for Snapshot {
    /// The snapshot's heap footprint (fingers and their provenance bits,
    /// level membership, liveness, pointer tables, chunks shared with
    /// another snapshot included; the ring arena is the overlay's, the
    /// object registry is size-of-catalogue, not size-of-`n`, and
    /// `HashMap` capacity is not observable — left out).
    fn heap_bytes(&self) -> usize {
        self.fingers.heap_bytes()
            + self.fallback.heap_bytes()
            + self.member.iter().map(Bits::heap_bytes).sum::<usize>()
            + vec_capacity_bytes(&self.alive)
            + self.tables.heap_bytes()
    }
}

impl DirectoryOverlay {
    /// Captures a [`Snapshot`] of this overlay and publishes it to
    /// `cell`, returning the cell's new publication epoch. The capture
    /// shares every unchanged chunk with the snapshot it supersedes.
    /// In-flight readers finish on the state they loaded; subsequent
    /// loads serve the new one.
    pub fn publish_snapshot<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        cell: &EpochCell<Snapshot>,
    ) -> u64 {
        // The handle on the predecessor is gone before the swap, so the
        // publish frees it at once unless a reader still holds it.
        let successor = Snapshot::capture_sharing(space, self, Some(&*cell.load()));
        cell.publish(successor)
    }
}

/// A compact cached lookup result (the path itself is not retained).
#[derive(Clone, Copy, Debug, PartialEq)]
struct CachedHit {
    home: Node,
    length: f64,
    hops: usize,
}

/// A fixed-capacity LRU map: an [`IdMap`] index into a slab of
/// doubly-linked entries. O(1) get/insert, least-recently-used eviction.
///
/// Entries are tagged with the publication epoch they were computed
/// against; a `get` under a different epoch is a miss (the stale entry
/// stays resident until overwritten or evicted — it can never be served
/// again, since epochs are monotone).
#[derive(Debug)]
struct LruCache {
    capacity: usize,
    map: IdMap<(Node, ObjectId), usize>,
    slots: Vec<LruSlot>,
    head: usize, // most recently used
    tail: usize, // least recently used
    /// Hit/miss/stale accounting; lives under the shard lock, so plain
    /// fields suffice.
    stats: CacheShardStats,
}

#[derive(Debug)]
struct LruSlot {
    key: (Node, ObjectId),
    value: CachedHit,
    epoch: u64,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl LruCache {
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            stats: CacheShardStats::default(),
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// The cached hit, if any; a miss and an entry cached against a
    /// superseded epoch are counted apart.
    fn get(&mut self, key: (Node, ObjectId), epoch: u64) -> Option<CachedHit> {
        let Some(&i) = self.map.get(&key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.slots[i].epoch != epoch {
            // Cached against a superseded publication: distinct from a
            // plain miss in the accounting, since it measures how much
            // of the cache each publish invalidates.
            self.stats.stale += 1;
            return None;
        }
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        self.stats.hits += 1;
        Some(self.slots[i].value)
    }

    fn insert(&mut self, key: (Node, ObjectId), value: CachedHit, epoch: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.slots[i].epoch = epoch;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(LruSlot {
                key,
                value,
                epoch,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            // Evict the least recently used entry and reuse its slot.
            let i = self.tail;
            self.unlink(i);
            self.map.remove(&self.slots[i].key);
            self.slots[i].key = key;
            self.slots[i].value = value;
            self.slots[i].epoch = epoch;
            i
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The shared result cache, hash-sharded over independent locks so the
/// worker pool doesn't funnel every query through one mutex.
#[derive(Debug)]
struct ShardedCache {
    shards: Vec<Mutex<LruCache>>,
}

impl ShardedCache {
    /// `capacity` is the total budget, split evenly across `shards`
    /// locks (at least one; capacity 0 disables caching entirely).
    fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
        }
    }

    /// Picks the shard index for a key: a splitmix64-style finalizer
    /// over the origin/object pair, so consecutive node indices spread
    /// out. Deterministic in the key, so a run's per-shard accounting
    /// is the same at any worker count.
    fn shard_index(&self, key: (Node, ObjectId)) -> usize {
        let mut h = (key.0.index() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1 .0);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        (h % self.shards.len() as u64) as usize
    }

    /// `shard`'s guard, also when a thread panicked holding it, since
    /// the serving path must not panic on another thread's panic. The
    /// shard is still whole: a guard lives for one `LruCache` call, and
    /// those index only linked slots and never panic on a whole shard.
    fn lock(shard: &Mutex<LruCache>) -> MutexGuard<'_, LruCache> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached hit, if any.
    fn get(&self, key: (Node, ObjectId), epoch: u64) -> Option<CachedHit> {
        Self::lock(&self.shards[self.shard_index(key)]).get(key, epoch)
    }

    fn insert(&self, key: (Node, ObjectId), value: CachedHit, epoch: u64) {
        Self::lock(&self.shards[self.shard_index(key)]).insert(key, value, epoch);
    }

    /// The per-shard hit/miss/stale accounting, in shard order.
    fn stats(&self) -> Vec<CacheShardStats> {
        self.shards.iter().map(|s| Self::lock(s).stats).collect()
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads serving the batch.
    pub workers: usize,
    /// Total capacity of the shared LRU result cache (0 disables
    /// caching).
    pub cache_capacity: usize,
    /// Number of independent cache shards (clamped to at least 1): each
    /// is an LRU of `ceil(cache_capacity / cache_shards)` entries behind
    /// its own mutex, and a key always hashes to the same shard. One
    /// shard is a single global LRU; more shards cut lock contention
    /// between workers on cache-hot workloads.
    pub cache_shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            cache_capacity: 4096,
            cache_shards: 8,
        }
    }
}

/// The concurrent query engine: serves batches of `(origin, object)`
/// lookups from the currently published [`Snapshot`] with a worker pool
/// and a sharded, epoch-tagged LRU cache.
///
/// The engine holds the [`EpochCell`], not a snapshot: each worker pins
/// the current publication and, before every query, checks the cell's
/// epoch (one atomic load), reloading when it moved — so a repair that
/// publishes mid-batch is picked up by the next query, earlier queries
/// in the batch answered from the old state, later ones from the new,
/// each complete.
///
/// # Example
///
/// ```
/// use ron_location::{
///     DirectoryOverlay, EngineConfig, EpochCell, ObjectId, QueryEngine, Snapshot,
/// };
/// use ron_metric::{gen, Node, Space};
///
/// let space = Space::new(gen::uniform_cube(64, 2, 7));
/// let mut overlay = DirectoryOverlay::build(&space);
/// overlay.publish(&space, ObjectId(0), Node::new(5));
/// let directory = EpochCell::new(Snapshot::capture(&space, &overlay));
/// let engine = QueryEngine::new(&space, &directory);
/// let queries = vec![(Node::new(60), ObjectId(0)); 128];
/// let report = engine.serve(&queries, &EngineConfig::default());
/// assert_eq!(report.successes, 128);
/// assert!(report.cache_hits > 0);
///
/// // The overlay is free to mutate while the engine serves; publishing
/// // makes the new state visible to subsequent queries atomically.
/// overlay.publish(&space, ObjectId(1), Node::new(9));
/// overlay.publish_snapshot(&space, &directory);
/// let report = engine.serve(&[(Node::new(60), ObjectId(1))], &EngineConfig::default());
/// assert_eq!(report.successes, 1);
/// ```
///
/// The engine reads nothing from the space but distances, so it serves
/// over any ball-query backend — the dense default or a
/// [`Space::new_sparse`] alike.
#[derive(Debug)]
pub struct QueryEngine<'a, M, I> {
    space: &'a Space<M, I>,
    directory: &'a EpochCell<Snapshot>,
}

impl<'a, M: Metric + Sync, I: Sync> QueryEngine<'a, M, I> {
    /// Creates an engine over a publication cell.
    #[must_use]
    pub fn new(space: &'a Space<M, I>, directory: &'a EpochCell<Snapshot>) -> Self {
        QueryEngine { space, directory }
    }

    /// Serves the batch with `config.workers` threads, returning
    /// throughput, latency percentiles and path statistics.
    pub fn serve(&self, queries: &[(Node, ObjectId)], config: &EngineConfig) -> BatchReport {
        let workers = config.workers.max(1).min(queries.len().max(1));
        let cache = ShardedCache::new(config.cache_capacity, config.cache_shards);
        let chunk = queries.len().div_ceil(workers);
        // ron-lint: allow(wall-clock): batch wall time feeds the
        // throughput/latency report only; answers and fingerprints
        // never depend on it.
        let start = Instant::now();
        let cache_ref = &cache;
        let worker_results: Vec<WorkerResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk.max(1))
                .enumerate()
                .map(|(w, slice)| {
                    let handle = scope.spawn(move || {
                        // Cache on or off is decided here, once per batch:
                        // the per-query loop carries no branch for it.
                        let out = if config.cache_capacity > 0 {
                            self.serve_chunk::<true>(w, slice, cache_ref)
                        } else {
                            self.serve_chunk::<false>(w, slice, cache_ref)
                        };
                        // Merge this worker's observability records before
                        // the scope can consider the thread finished.
                        ron_obs::flush();
                        out
                    });
                    (slice.len(), handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(len, h)| {
                    // A worker that panicked vouches for none of its
                    // chunk: all of it counts as served and failed.
                    h.join().unwrap_or_else(|_| {
                        ron_obs::count("engine.worker.panics", 1);
                        WorkerResult {
                            served: len,
                            failures: len,
                            ..WorkerResult::default()
                        }
                    })
                })
                .collect()
        });
        let elapsed = start.elapsed();
        let mut report = BatchReport {
            elapsed,
            ..BatchReport::default()
        };
        let mut nanos = Vec::with_capacity(queries.len());
        for w in worker_results {
            report.served += w.served;
            report.successes += w.successes;
            report.failures += w.failures;
            report.cache_hits += w.cache_hits;
            report.reloads += w.reloads;
            report.paths.merge(&w.paths);
            nanos.extend(w.latencies_ns);
        }
        report.latency = LatencySummary::from_nanos(nanos);
        if config.cache_capacity > 0 {
            report.cache_shards = cache.stats();
        }
        if ron_obs::enabled() {
            ron_obs::count("engine.snapshot.reloads", report.reloads as u64);
            for (i, s) in report.cache_shards.iter().enumerate() {
                let shard = ron_obs::label(&format!("shard{i}"));
                ron_obs::count_labeled("engine.cache.hit", shard, s.hits);
                ron_obs::count_labeled("engine.cache.miss", shard, s.misses);
                ron_obs::count_labeled("engine.cache.stale", shard, s.stale);
            }
        }
        report
    }

    /// Serves one worker's share of a batch, probing and filling `cache`
    /// only when `CACHED`.
    fn serve_chunk<const CACHED: bool>(
        &self,
        worker: usize,
        queries: &[(Node, ObjectId)],
        cache: &ShardedCache,
    ) -> WorkerResult {
        // Intern the worker label once per chunk, off the per-query path.
        let wlabel = if ron_obs::enabled() {
            Some(ron_obs::label(&format!("w{worker}")))
        } else {
            None
        };
        let mut out = WorkerResult::default();
        // Pinned for the chunk; the per-query epoch check below is one
        // atomic load, so a mid-batch publish is still picked up by the
        // next query (which warms what changed), and the epoch tag keeps
        // cache entries from a superseded snapshot from being served.
        let mut snap = self.directory.load();
        for &(origin, obj) in queries {
            // ron-lint: allow(wall-clock): per-query latency
            // measurement for the report; the lookup answer is
            // computed from the snapshot alone.
            let t0 = Instant::now();
            if self.directory.epoch() != snap.epoch() {
                let next = self.directory.load();
                next.warm_since(&snap);
                snap = next;
                out.reloads += 1;
            }
            let epoch = snap.epoch();
            let probe = if CACHED {
                cache.get((origin, obj), epoch)
            } else {
                None
            };
            let result = match probe {
                Some(cached) => {
                    out.cache_hits += 1;
                    Some(cached)
                }
                None => match snap.lookup(self.space, origin, obj) {
                    Ok(outcome) => {
                        let cached = CachedHit {
                            home: outcome.home,
                            length: outcome.length,
                            hops: outcome.hops(),
                        };
                        if CACHED {
                            cache.insert((origin, obj), cached, epoch);
                        }
                        Some(cached)
                    }
                    Err(_) => None,
                },
            };
            let elapsed = t0.elapsed().as_nanos() as u64;
            if let Some(w) = wlabel {
                // Reuses the latency measurement the report already
                // takes — no extra clock reads on the hot path.
                ron_obs::observe_labeled("engine.worker.latency_ns", w, elapsed);
            }
            out.latencies_ns.push(elapsed);
            out.served += 1;
            match result {
                Some(hit) => {
                    out.successes += 1;
                    out.paths
                        .record(hit.length, self.space.dist(origin, hit.home), hit.hops);
                }
                None => out.failures += 1,
            }
        }
        out
    }
}

#[derive(Debug, Default)]
struct WorkerResult {
    served: usize,
    successes: usize,
    failures: usize,
    cache_hits: usize,
    reloads: usize,
    latencies_ns: Vec<u64>,
    paths: PathStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::{gen, LineMetric};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn key(i: u64) -> (Node, ObjectId) {
        (Node::new(i as usize % 4), ObjectId(i))
    }

    fn hit(i: usize) -> CachedHit {
        CachedHit {
            home: Node::new(i),
            length: i as f64,
            hops: i,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        lru.insert(key(1), hit(1), 0);
        lru.insert(key(2), hit(2), 0);
        assert_eq!(lru.get(key(1), 0), Some(hit(1))); // 1 is now MRU
        lru.insert(key(3), hit(3), 0); // evicts 2
        assert_eq!(lru.get(key(2), 0), None);
        assert_eq!(lru.get(key(1), 0), Some(hit(1)));
        assert_eq!(lru.get(key(3), 0), Some(hit(3)));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_update_moves_to_front() {
        let mut lru = LruCache::new(2);
        lru.insert(key(1), hit(1), 0);
        lru.insert(key(2), hit(2), 0);
        lru.insert(key(1), hit(9), 0); // update, 1 becomes MRU
        lru.insert(key(3), hit(3), 0); // evicts 2
        assert_eq!(lru.get(key(1), 0), Some(hit(9)));
        assert_eq!(lru.get(key(2), 0), None);
    }

    #[test]
    fn lru_accounts_hits_and_misses_exactly() {
        let mut lru = LruCache::new(4);
        let (mut hits, mut misses) = (0usize, 0usize);
        let mut probe = |lru: &mut LruCache, k: u64| match lru.get(key(k), 0) {
            Some(_) => hits += 1,
            None => misses += 1,
        };
        probe(&mut lru, 1); // cold miss
        lru.insert(key(1), hit(1), 0);
        probe(&mut lru, 1); // hit
        probe(&mut lru, 1); // hit again — gets don't consume the entry
        probe(&mut lru, 2); // miss: never inserted
        assert_eq!((hits, misses), (2, 2));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn lru_rejects_entries_from_a_superseded_epoch() {
        let mut lru = LruCache::new(4);
        lru.insert(key(1), hit(1), 0);
        assert_eq!(lru.get(key(1), 0), Some(hit(1)));
        // After a publish the same key under the new epoch is a miss...
        assert_eq!(lru.get(key(1), 1), None);
        // ...and re-inserting retags it, making the *old* epoch stale.
        lru.insert(key(1), hit(2), 1);
        assert_eq!(lru.get(key(1), 1), Some(hit(2)));
        assert_eq!(lru.get(key(1), 0), None);
        assert_eq!(lru.len(), 1, "retagging must not duplicate the entry");
    }

    #[test]
    fn zero_capacity_cache_is_inert() {
        let mut lru = LruCache::new(0);
        lru.insert(key(1), hit(1), 0);
        assert_eq!(lru.get(key(1), 0), None);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn sharded_cache_round_trips_across_shards() {
        let cache = ShardedCache::new(64, 8);
        for i in 0..32u64 {
            cache.insert(key(i), hit(i as usize), 0);
        }
        for i in 0..32u64 {
            assert_eq!(cache.get(key(i), 0), Some(hit(i as usize)), "key {i}");
            assert_eq!(cache.get(key(i), 1), None, "epoch tag applies per shard");
        }
    }

    #[test]
    fn sharded_cache_clamps_degenerate_configs() {
        // Zero shards clamps to one; zero capacity stays inert.
        let cache = ShardedCache::new(16, 0);
        assert_eq!(cache.shards.len(), 1);
        cache.insert(key(1), hit(1), 0);
        assert_eq!(cache.get(key(1), 0), Some(hit(1)));
        let inert = ShardedCache::new(0, 4);
        inert.insert(key(1), hit(1), 0);
        assert_eq!(inert.get(key(1), 0), None);
    }

    #[test]
    fn a_poisoned_shard_still_answers() {
        let cache = ShardedCache::new(16, 1);
        cache.insert(key(1), hit(1), 0);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = cache.shards[0].lock().unwrap();
                    panic!("a worker dies holding the shard");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cache.shards[0].is_poisoned());
        assert_eq!(cache.get(key(1), 0), Some(hit(1)));
        cache.insert(key(2), hit(2), 0);
        assert_eq!(cache.get(key(2), 0), Some(hit(2)));
        let stats = cache.stats();
        assert_eq!((stats[0].hits, stats[0].misses), (2, 0));
    }

    #[test]
    fn snapshot_agrees_with_overlay_lookup() {
        let space = Space::new(gen::uniform_cube(64, 2, 19));
        let mut ov = DirectoryOverlay::build(&space);
        for i in 0..8u64 {
            ov.publish(&space, ObjectId(i), Node::new((i as usize * 9) % 64));
        }
        let snap = Snapshot::capture(&space, &ov);
        assert_eq!(snap.epoch(), ov.epoch());
        for s in space.nodes() {
            for &obj in ov.objects() {
                let a = ov.lookup(&space, s, obj).unwrap();
                let b = snap.lookup(&space, s, obj).unwrap();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_overlay_mutation() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), Node::new(5));
        let snap = Snapshot::capture(&space, &ov);
        // Damage the overlay after the capture: the snapshot still serves
        // the state it froze.
        ov.leave(Node::new(5));
        assert!(ov.lookup(&space, Node::new(20), ObjectId(0)).is_err());
        let out = snap.lookup(&space, Node::new(20), ObjectId(0)).unwrap();
        assert_eq!(out.home, Node::new(5));
        assert!(ov.epoch() > snap.epoch(), "mutation bumps the epoch");
    }

    #[test]
    fn engine_serves_batches_with_full_success() {
        let space = Space::new(LineMetric::uniform(64).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        for i in 0..8u64 {
            ov.publish(&space, ObjectId(i), Node::new((i as usize * 7) % 64));
        }
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let engine = QueryEngine::new(&space, &cell);
        let queries: Vec<(Node, ObjectId)> = (0..512)
            .map(|i| (Node::new((i * 13) % 64), ObjectId((i % 8) as u64)))
            .collect();
        let report = engine.serve(
            &queries,
            &EngineConfig {
                workers: 4,
                cache_capacity: 64,
                cache_shards: 4,
            },
        );
        assert_eq!(report.served, 512);
        assert_eq!(report.successes, 512);
        assert_eq!(report.failures, 0);
        assert_eq!(report.reloads, 0, "nothing was published mid-batch");
        assert!(report.cache_hits > 0, "repeated keys must hit the cache");
        assert_eq!(report.latency.count, 512);
        assert_eq!(report.paths.count, 512);
        assert!(report.throughput() > 0.0);
        // Cached results must agree with uncached lookups: stretch stats
        // stay within the static bound.
        assert!(report.paths.max_stretch <= 18.0);
    }

    #[test]
    fn engine_serves_a_sparse_space_directly() {
        let space = Space::new_sparse(gen::uniform_cube(96, 2, 23));
        let mut ov = DirectoryOverlay::build(&space);
        for i in 0..8u64 {
            ov.publish(&space, ObjectId(i), Node::new((i as usize * 11) % 96));
        }
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let engine = QueryEngine::new(&space, &cell);
        let queries: Vec<(Node, ObjectId)> = (0..384)
            .map(|i| (Node::new((i * 7) % 96), ObjectId((i % 8) as u64)))
            .collect();
        let report = engine.serve(&queries, &EngineConfig::default());
        assert_eq!(report.successes, queries.len());
        assert_eq!(report.failures, 0);
        assert!(report.paths.max_stretch <= 18.0);
    }

    #[test]
    fn engine_counts_failures_on_damaged_overlay() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), Node::new(5));
        ov.leave(Node::new(5)); // kill the home, no repair
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let engine = QueryEngine::new(&space, &cell);
        let queries = vec![(Node::new(20), ObjectId(0)); 16];
        let report = engine.serve(&queries, &EngineConfig::default());
        assert_eq!(report.failures, 16);
        assert_eq!(report.successes, 0);
    }

    /// A line metric whose `dist(bad, bad)` panics once armed: only a
    /// query from `bad` for an object homed at `bad` asks it.
    struct Tripwire {
        line: LineMetric,
        bad: Node,
        armed: Arc<AtomicBool>,
    }

    impl Metric for Tripwire {
        fn len(&self) -> usize {
            self.line.len()
        }

        fn dist(&self, u: Node, v: Node) -> f64 {
            // ordering: Relaxed -- the flag guards no other data; the
            // workers are spawned after it is set.
            let armed = self.armed.load(Ordering::Relaxed);
            let bad = self.bad;
            assert!(!(armed && u == bad && v == bad), "tripwire at {bad}");
            self.line.dist(u, v)
        }
    }

    #[test]
    fn a_panicking_worker_fails_its_chunk_and_spares_the_others() {
        let bad = Node::new(5);
        let armed = Arc::new(AtomicBool::new(false));
        let space = Space::new(Tripwire {
            line: LineMetric::uniform(32).unwrap(),
            bad,
            armed: Arc::clone(&armed),
        });
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), bad);
        ov.publish(&space, ObjectId(1), Node::new(20));
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let engine = QueryEngine::new(&space, &cell);
        // The first worker's chunk trips the wire; the second's never
        // asks for `bad`.
        let mut queries = vec![(bad, ObjectId(0)); 8];
        queries.extend((0..8).map(|i| (Node::new(24 + i), ObjectId(1))));
        // ordering: Relaxed -- spawning the workers orders this store
        // before their loads.
        armed.store(true, Ordering::Relaxed);
        let config = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let report = engine.serve(&queries, &config);
        assert_eq!(report.served, 16);
        assert_eq!(report.failures, 8);
        assert_eq!(report.successes, 8);
    }

    /// A publish after an epoch that re-homed nothing hands the next
    /// snapshot its predecessor's homes map; one after a re-homing does
    /// not.
    #[test]
    fn homes_map_is_shared_until_a_rehoming() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), Node::new(5));
        ov.publish(&space, ObjectId(1), Node::new(20));
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let first = cell.load();
        ov.leave(Node::new(11));
        assert_eq!(ov.repair_published(&space, &cell).rehomed, 0);
        let second = cell.load();
        assert!(Arc::ptr_eq(&first.homes, &second.homes));
        ov.leave(Node::new(5));
        assert_eq!(ov.repair_published(&space, &cell).rehomed, 1);
        let third = cell.load();
        assert!(!Arc::ptr_eq(&second.homes, &third.homes));
        assert_eq!(third.homes.get(&ObjectId(1)), Some(&Node::new(20)));
    }

    #[test]
    fn engine_counts_an_origin_outside_the_overlay_as_a_failure() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), Node::new(5));
        let snap = Snapshot::capture(&space, &ov);
        let stranger = Node::new(32);
        assert_eq!(
            snap.lookup(&space, stranger, ObjectId(0)),
            Err(LocateError::UnknownOrigin { origin: stranger })
        );
        let cell = EpochCell::new(snap);
        let engine = QueryEngine::new(&space, &cell);
        // Bad origins in both workers' chunks, beside good queries.
        let queries: Vec<(Node, ObjectId)> = (0..64)
            .map(|i| {
                let origin = if i % 8 == 3 {
                    Node::new(32 + i)
                } else {
                    Node::new(i % 32)
                };
                (origin, ObjectId(0))
            })
            .collect();
        let config = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let report = engine.serve(&queries, &config);
        assert_eq!(report.served, 64);
        assert_eq!(report.failures, 8);
        assert_eq!(report.successes, 56);
    }

    /// Panics unless `shared` holds every finger, fallback bit and
    /// membership bit that `fresh` holds.
    fn assert_same_fingers(shared: &Snapshot, fresh: &Snapshot, when: &str) {
        for v in Node::all(fresh.alive.len()) {
            assert_eq!(
                shared.fingers.row(v),
                fresh.fingers.row(v),
                "{when}: fingers of {v}"
            );
        }
        assert_eq!(shared.fallback, fresh.fallback, "{when}: fallback bits");
        assert_eq!(shared.member, fresh.member, "{when}: membership");
    }

    /// The chunks a snapshot serves from answer, for every (node, level,
    /// object), what the overlay's per-node table answers — and the
    /// successor `publish_snapshot` builds on its predecessor answers
    /// every entry, finger and `lookup_path` as a fresh capture does —
    /// pristine and after each step of a leave wave, its repair, an
    /// unpublish, the re-joins and their repair; over the snapshot of a
    /// diverged clone and of a separate build; and through a level
    /// emptied outright, its repair, and the rejoin of its members.
    fn assert_shared_capture_matches_a_fresh_one<M: Metric, I: BallOracle>(space: &Space<M, I>) {
        let n = space.len();
        let mut ov = DirectoryOverlay::build(space);
        let mut objects: Vec<ObjectId> = (0..5).map(ObjectId).collect();
        for (i, &obj) in objects.iter().enumerate() {
            ov.publish(space, obj, Node::new((i * 13 + 1) % n));
        }
        objects.push(ObjectId(u64::MAX)); // never published
        let cell = EpochCell::new(Snapshot::capture(space, &ov));
        let check = |ov: &DirectoryOverlay, when: &str| {
            ov.publish_snapshot(space, &cell);
            let shared = cell.load();
            let fresh = Snapshot::capture(space, ov);
            assert_same_fingers(&shared, &fresh, when);
            for v in space.nodes() {
                for level in 0..ov.levels() {
                    for &obj in &objects {
                        let entry = ov.tables.node(v).get(level, obj);
                        assert_eq!(
                            fresh.tables.table(v).get(level, obj),
                            entry,
                            "{when}: entry ({v}, {level}, {obj})"
                        );
                        assert_eq!(
                            shared.tables.table(v).get(level, obj),
                            entry,
                            "{when}: shared entry ({v}, {level}, {obj})"
                        );
                    }
                }
                for &obj in &objects {
                    assert_eq!(
                        shared.lookup_path(space, v, obj),
                        fresh.lookup_path(space, v, obj),
                        "{when}: lookup_path({v}, {obj})"
                    );
                }
            }
        };
        check(&ov, "pristine");
        let gone: Vec<Node> = (0..n / 6).map(|k| Node::new((k * 11 + 3) % n)).collect();
        for &v in &gone {
            ov.leave(v);
        }
        check(&ov, "after the leave wave");
        let levels = ov.levels();
        let fell_back =
            |v: Node| (0..levels).any(|j| cell.load().fallback.get(v.index() * levels + j));
        assert!(
            gone.iter().any(|&v| fell_back(v)),
            "an unrepaired leave leaves some dead node an empty ring"
        );
        ov.repair(space);
        check(&ov, "after its repair");
        ov.unpublish(ObjectId(2));
        check(&ov, "after an unpublish");
        for &v in &gone {
            ov.join(space, v);
        }
        check(&ov, "after the re-joins");
        ov.repair(space);
        check(&ov, "after their repair");

        // Predecessors this overlay did not publish: a clone's that
        // diverged (the same ring arena, diffed), then a separate build's
        // (another arena, recomputed in full).
        let mut twin = ov.clone();
        for &v in &gone[..gone.len() / 2] {
            twin.leave(v);
        }
        twin.repair(space);
        cell.publish(Snapshot::capture(space, &twin));
        check(&ov, "over a diverged clone's snapshot");
        cell.publish(Snapshot::capture(space, &DirectoryOverlay::build(space)));
        check(&ov, "over a separate build's snapshot");

        // A level emptied outright: its fingers go to the sentinel and
        // come back with the repair.
        let j = levels / 2;
        let emptied: Vec<Node> = space.nodes().filter(|&v| ov.is_net_member(j, v)).collect();
        for &v in &emptied {
            ov.leave(v);
        }
        check(&ov, "with a level emptied");
        let none_at_j = |v: Node| cell.load().fingers.row(v)[j].get().is_none();
        assert!(space.nodes().all(none_at_j), "level {j} has no member");
        ov.repair(space);
        check(&ov, "after the emptied level's repair");
        assert!(!space.nodes().any(none_at_j), "level {j} is covered again");
        for &v in &emptied {
            ov.join(space, v);
        }
        check(&ov, "after its members rejoin");
        ov.repair(space);
        check(&ov, "after the rejoin's repair");
    }

    /// Seeded leave, join, hub-leave, repair and `publish_snapshot`
    /// sequences: after every publish the published fingers, fallback
    /// bits and membership equal a fresh capture's.
    fn assert_publishes_match_fresh_captures<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        seed: u64,
        steps: usize,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = space.len();
        let mut ov = DirectoryOverlay::build(space);
        let cell = EpochCell::new(Snapshot::capture(space, &ov));
        let leave = |ov: &mut DirectoryOverlay, v: Node| {
            if ov.is_alive(v) && ov.alive_count() > 2 {
                ov.leave(v);
            }
        };
        for step in 0..steps {
            let v = Node::new(rng.random_range(0..n));
            match rng.random_range(0..6u8) {
                0 | 1 if ov.is_alive(v) => leave(&mut ov, v),
                0 | 1 => ov.join(space, v),
                2 => {
                    let top = space.nodes().filter_map(|u| ov.top_level_of(u)).max();
                    let hub = space.nodes().find(|&u| ov.top_level_of(u) == top);
                    leave(&mut ov, hub.expect("somebody is alive"));
                }
                3 => {
                    ov.repair(space);
                }
                _ => {
                    ov.publish_snapshot(space, &cell);
                    let fresh = Snapshot::capture(space, &ov);
                    assert_same_fingers(&cell.load(), &fresh, &format!("step {step}"));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn every_publish_matches_a_fresh_capture(seed in 0u64..1000, steps in 8usize..40) {
            fn on_both_backends<M: Metric + Clone>(metric: M, seed: u64, steps: usize) {
                assert_publishes_match_fresh_captures(&Space::new(metric.clone()), seed, steps);
                assert_publishes_match_fresh_captures(&Space::new_sparse(metric), seed, steps);
            }
            on_both_backends(gen::uniform_cube(40, 2, seed), seed, steps);
            on_both_backends(gen::clustered(40, 2, 4, 0.02, seed), seed, steps);
            on_both_backends(gen::perturbed_grid(6, 2, 0.3, seed), seed, steps);
            on_both_backends(gen::exponential_line(14), seed, steps);
            // Integer spacing: an added member ties with a finger.
            on_both_backends(LineMetric::uniform(24).unwrap(), seed, steps);
        }
    }

    #[test]
    fn shared_capture_matches_a_fresh_one_on_all_families_and_backends() {
        fn on_both_backends<M: Metric + Clone>(metric: M) {
            assert_shared_capture_matches_a_fresh_one(&Space::new(metric.clone()));
            assert_shared_capture_matches_a_fresh_one(&Space::new_sparse(metric));
        }
        on_both_backends(gen::uniform_cube(48, 2, 17));
        on_both_backends(gen::clustered(48, 2, 4, 0.02, 9));
        on_both_backends(gen::perturbed_grid(6, 2, 0.3, 4));
        on_both_backends(gen::exponential_line(14));
    }

    /// A wave of 1/16 of the nodes, all from the fine half of the ladder,
    /// published, then its repair published: the repaired successor
    /// shares at least 70 % of its chunks with the snapshot it supersedes.
    #[test]
    fn a_repaired_successor_shares_most_chunks_with_its_predecessor() {
        const N: usize = 1024;
        let space = Space::new(gen::uniform_cube(N, 2, 5));
        let mut ov = DirectoryOverlay::build(&space);
        let items: Vec<(ObjectId, Node)> = (0..N / 64)
            .map(|i| (ObjectId(i as u64), Node::new((i * 37 + 11) % N)))
            .collect();
        ov.publish_batch(&space, &items);
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let fine = ov.levels() / 2;
        let wave: Vec<Node> = (0..N)
            .map(|k| Node::new((k * 97 + 5) % N))
            .filter(|&v| ov.top_level_of(v) < Some(fine))
            .take(N / 16)
            .collect();
        assert_eq!(wave.len(), N / 16);
        for &v in &wave {
            ov.leave(v);
        }
        ov.publish_snapshot(&space, &cell);
        let before = cell.load();
        ov.repair_published(&space, &cell);
        let after = cell.load();
        let shared = after.fingers.chunks_shared_with(&before.fingers)
            + after.tables.chunks_shared_with(&before.tables);
        let total = after.fingers.chunk_count() + after.tables.chunk_count();
        assert!(
            shared * 10 >= total * 7,
            "the repaired successor shares {shared} of {total} chunks"
        );
    }

    #[test]
    fn publish_invalidates_cached_hits() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), Node::new(5));
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let engine = QueryEngine::new(&space, &cell);
        let queries = vec![(Node::new(20), ObjectId(0)); 64];
        let warm = engine.serve(&queries, &EngineConfig::default());
        assert_eq!(warm.successes, 64);

        // Move the object: unpublish + republish at a new home, then
        // publish the successor snapshot.
        ov.unpublish(ObjectId(0));
        ov.publish(&space, ObjectId(0), Node::new(29));
        ov.publish_snapshot(&space, &cell);

        // A fresh batch must resolve to the *new* home even though the
        // batch-local cache starts cold; and serving the same batch with
        // a mid-serve publish must never mix epochs per answer (each
        // answer comes from exactly one published snapshot).
        let report = engine.serve(&queries, &EngineConfig::default());
        assert_eq!(report.successes, 64);
        let out = cell
            .load()
            .lookup(&space, Node::new(20), ObjectId(0))
            .unwrap();
        assert_eq!(out.home, Node::new(29));
    }

    #[test]
    fn repair_published_serves_through_the_swap() {
        let space = Space::new(LineMetric::uniform(64).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        for i in 0..6u64 {
            ov.publish(&space, ObjectId(i), Node::new((i as usize * 7) % 64));
        }
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let engine = QueryEngine::new(&space, &cell);
        let pre = cell.load();

        // Damage + repair entirely behind the cell: readers of `pre`
        // are never disturbed.
        let top = ov.levels() - 1;
        let hub = space.nodes().find(|&v| ov.is_net_member(top, v)).unwrap();
        ov.leave(hub);
        let report = ov.repair_published(&space, &cell);
        assert!(report.promotions + report.pointer_writes > 0);
        assert_eq!(cell.epoch(), 1);
        assert!(cell.load().epoch() > pre.epoch());

        // Post-repair serving is 100% from alive origins.
        let queries: Vec<(Node, ObjectId)> = (0..128)
            .map(|i| {
                let mut origin = Node::new((i * 13) % 64);
                if origin == hub {
                    origin = Node::new((origin.index() + 1) % 64);
                }
                (origin, ObjectId((i % 6) as u64))
            })
            .collect();
        let served = engine.serve(&queries, &EngineConfig::default());
        assert_eq!(served.successes, queries.len());
    }
}
