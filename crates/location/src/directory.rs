//! The directory overlay: the static ladder and rings, the control plane
//! (membership, registry, placements) and the per-node pointer tables.
//!
//! A [`DirectoryOverlay`] turns the static structures of `ron-nets` and
//! `ron-core` into a serving system. It is built once over a
//! [`Space`](ron_metric::Space) and then mutated by `publish` /
//! `unpublish` (see [`publish`](crate::publish)), `join` / `leave` /
//! `repair` (see [`churn`](crate::churn)), and queried by `lookup`
//! (see [`lookup`](crate::lookup)) or through an immutable
//! [`Snapshot`](crate::engine::Snapshot).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ron_core::RingFamily;
use ron_metric::mem::{nested_vec_bytes, vec_capacity_bytes};
use ron_metric::{BallOracle, HeapBytes, Metric, Node, Space};
use ron_nets::NestedNets;

use crate::authority::RepairAuthority;
use crate::tables::{Bits, PointerTables};

/// Identifier of a published object.
///
/// Objects are application payloads; the overlay only tracks which node
/// currently *homes* each object and where the directory pointers to that
/// home live.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

/// A hash map keyed by node or object ids, hashed by [`IdHasher`]: the
/// object registry's `homes` (probed once per lookup) and the engine's
/// result-cache index.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// One multiply per id word instead of SipHash. The keys are ids the
/// system assigns, not attacker-chosen strings, so there is no flooding
/// to defend against. The state's high bits mix best, and `finish`
/// rotates them down to where the table takes its bucket index.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// Where one object's directory state lives: its zoom chain and the
/// `(level, node)` pairs holding pointer entries for it.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Placement {
    /// `chain[j]` is the net point the level-`j+1` entries forward to
    /// (`chain[0]` is the home itself, since `G_0` contains every node).
    pub(crate) chain: Vec<Node>,
    /// Every `(level, node)` currently holding an entry for the object.
    pub(crate) entries: Vec<(usize, Node)>,
}

/// Default ring-radius factor: pointers for an object homed at `h` are
/// replicated on `B_h(2 r_j) ∩ G_j` at every ladder level `j`.
///
/// Factor 2 is the smallest with a static delivery guarantee: a lookup
/// finger `f_sj` satisfies `d(f_sj, h) <= r_j + d(s, h)`, so the entry is
/// present whenever `r_j >= d(s, h)` — and the top radius dominates the
/// diameter, so the climb always terminates successfully.
pub const DEFAULT_RING_FACTOR: f64 = 2.0;

/// The publish/lookup directory overlay.
///
/// Structure (the object-location half of the paper, realised in the
/// Awerbuch–Peleg style over the paper's net rings): for each object with
/// home `h`, a pointer to the next chain node is installed at every member
/// of the ring `B_h(c r_j) ∩ G_j` for every ladder level `j` (the rings of
/// [`RingFamily::from_nets`] with radius `c r_j`). A lookup from origin `s`
/// climbs the fingers `f_sj` (nearest net member per level — the zooming
/// sequence of `s`, reversed) until it hits an entry, then follows the
/// stored chain — the zooming sequence of `h` — down to the home.
///
/// The dynamics layer maintains net membership and pointers under churn;
/// see [`DirectoryOverlay::join`], [`DirectoryOverlay::leave`] and
/// [`DirectoryOverlay::repair`].
///
/// # Example
///
/// ```
/// use ron_location::{DirectoryOverlay, ObjectId};
/// use ron_metric::{gen, Node, Space};
///
/// let space = Space::new(gen::uniform_cube(64, 2, 7));
/// let mut overlay = DirectoryOverlay::build(&space);
/// overlay.publish(&space, ObjectId(1), Node::new(9));
/// let hit = overlay.lookup(&space, Node::new(40), ObjectId(1))?;
/// assert_eq!(hit.home, Node::new(9));
/// # Ok::<(), ron_location::LocateError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DirectoryOverlay {
    pub(crate) nets: NestedNets,
    /// The control plane — dynamic membership, the publish rings, alive
    /// flags, touched sets, object registry, placements — stored once,
    /// here. Every membership rule and ladder read (`leave`, `join`,
    /// fingers, rings, chains, repair planning) is a method on it.
    pub(crate) control: RepairAuthority,
    /// The data plane: per-node directory pointer entries, keyed by
    /// `(level, object)` in one sorted compact array per node.
    pub(crate) tables: PointerTables,
    /// Version counter over this overlay lineage: bumped by every
    /// lookup-affecting mutation (publish, unpublish, join, leave, plan
    /// application). Snapshots are stamped with it, so epoch-tagged cache
    /// entries from an older state are rejected after a publication.
    pub(crate) epoch: u64,
}

impl DirectoryOverlay {
    /// Builds the overlay over `space` with the default ring factor.
    #[must_use]
    pub fn build<M: Metric, I: BallOracle>(space: &Space<M, I>) -> Self {
        let nets = NestedNets::build(space);
        // The publish rings are exactly the net rings of Theorem 2.1 shape
        // with radius `DEFAULT_RING_FACTOR * r_j`.
        let rings = RingFamily::from_nets(space, &nets, |_, r| Some(DEFAULT_RING_FACTOR * r));
        let _stage = ron_obs::stage("directory");
        let _span = ron_obs::span("construct.directory");
        Self::from_structures(space.len(), nets, rings, DEFAULT_RING_FACTOR)
    }

    /// Assembles the overlay from an already-built ladder and ring family
    /// (the rings must be the per-level rings at radius
    /// `ring_factor * r_j`), so callers that built those structures for
    /// other purposes — or benchmarks timing each stage — don't pay for
    /// them twice.
    ///
    /// # Panics
    ///
    /// Panics if `ring_factor < 2.0` or if the arities disagree.
    #[must_use]
    pub fn from_structures(
        n: usize,
        nets: NestedNets,
        rings: RingFamily,
        ring_factor: f64,
    ) -> Self {
        assert!(
            ring_factor >= 2.0,
            "ring factor {ring_factor} loses the delivery guarantee (needs >= 2)"
        );
        assert_eq!(rings.len(), n, "ring family arity must match the space");
        DirectoryOverlay {
            control: RepairAuthority::from_nets(&nets, rings, ring_factor),
            nets,
            tables: PointerTables::new(n),
            epoch: 0,
        }
    }

    /// A copy of the control plane — membership ladder, publish rings
    /// (the built arena shared, not copied), alive flags, touched sets,
    /// object registry and placements (the pointer tables stay behind;
    /// they are the data plane). This is what a detached planner, such as
    /// the simulator's repair coordinator, evolves on its own.
    #[must_use]
    pub fn control_plane(&self) -> RepairAuthority {
        self.control.clone()
    }

    /// The overlay's mutation epoch: incremented by every lookup-affecting
    /// change (publish, unpublish, join, leave, repair-plan application).
    /// A [`Snapshot`](crate::engine::Snapshot) carries the epoch it was
    /// captured at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes in the underlying space (alive or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.control.len()
    }

    /// Whether the overlay has no nodes (never true: construction panics).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.control.is_empty()
    }

    /// Number of ladder levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.control.levels()
    }

    /// The ring-radius factor `c` of the publish rings `B_h(c r_j) ∩ G_j`.
    #[must_use]
    pub fn ring_factor(&self) -> f64 {
        self.control.ring_factor
    }

    /// The static net ladder the overlay was built from.
    #[must_use]
    pub fn nets(&self) -> &NestedNets {
        &self.nets
    }

    /// The publish rings as built (`RingFamily` at radius `c r_j`).
    #[must_use]
    pub fn rings(&self) -> &RingFamily {
        &self.control.rings
    }

    /// Whether `v` is currently alive.
    #[must_use]
    pub fn is_alive(&self, v: Node) -> bool {
        self.control.is_alive(v)
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.control.alive_count()
    }

    /// Whether `v` is an alive member of the level-`j` net.
    #[must_use]
    pub fn is_net_member(&self, level: usize, v: Node) -> bool {
        self.control.member[level].get(v.index())
    }

    /// The finger of `s` at level `j`: the nearest alive member of the
    /// dynamic level-`j` net (with its distance), or `None` if the level
    /// has no members left.
    ///
    /// Read from `s`'s publish ring at `j`, which holds every member
    /// within `ring_factor * r_j` of `s` (the paper's point — the rings
    /// subsume the zooming sequence); the oracle is asked only when that
    /// ring is empty. Delegates to the one ladder reader, in
    /// [`RepairAuthority`], that chains, snapshots, slices, lookups and
    /// the repair planner share.
    #[must_use]
    pub fn finger<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        s: Node,
        level: usize,
    ) -> Option<(f64, Node)> {
        self.control.finger(space, s, level)
    }

    /// Published objects, in publish order.
    #[must_use]
    pub fn objects(&self) -> &[ObjectId] {
        &self.control.objects
    }

    /// The current home of `obj`, if published. The home may be dead
    /// between a `leave` and the next `repair` (which re-homes it).
    #[must_use]
    pub fn home_of(&self, obj: ObjectId) -> Option<Node> {
        self.control.home_of(obj)
    }

    /// Total directory entries currently installed across all nodes.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.tables.total()
    }

    /// Directory entries stored at `v` (its share of the serving load).
    #[must_use]
    pub fn entries_at(&self, v: Node) -> usize {
        self.tables.node(v).len()
    }

    /// The coarsest ladder level `v` is currently a member of, or `None`
    /// if `v` is dead. Coarse members are the overlay's hubs: they cover
    /// large balls and hold the most pointers.
    #[must_use]
    pub fn top_level_of(&self, v: Node) -> Option<usize> {
        if !self.is_alive(v) {
            return None;
        }
        (0..self.levels()).rev().find(|&j| self.is_net_member(j, v))
    }
}

impl HeapBytes for DirectoryOverlay {
    /// The overlay's structural heap footprint: ladder radii, dynamic
    /// membership, touched sets, the ring arena and the rows copied out of
    /// it (none at build), the per-home object lists, and the pointer
    /// tables with their chunk stamps. The per-object maps (`homes`,
    /// `placements`) scale with the published object count, not with `n`,
    /// and `HashMap` capacity is not observable — they are deliberately
    /// left out, so the accounted value is the bytes-per-*node* quantity
    /// the scaling benchmark budgets.
    fn heap_bytes(&self) -> usize {
        let control = &self.control;
        // ron-lint: allow(map-order): a sum, the same in any order.
        let grown: usize = control.grown.values().map(vec_capacity_bytes).sum();
        vec_capacity_bytes(&control.radii)
            + vec_capacity_bytes(&control.member)
            + control.member.iter().map(Bits::heap_bytes).sum::<usize>()
            + nested_vec_bytes(&control.touched)
            + vec_capacity_bytes(&control.alive)
            + vec_capacity_bytes(&control.objects)
            + control.index_bytes()
            + self.nets.heap_bytes()
            + control.rings.heap_bytes()
            + grown
            + self.tables.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::LineMetric;

    fn overlay() -> (Space<LineMetric>, DirectoryOverlay) {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let overlay = DirectoryOverlay::build(&space);
        (space, overlay)
    }

    #[test]
    fn build_mirrors_static_ladder() {
        let (space, ov) = overlay();
        assert_eq!(ov.len(), 32);
        assert_eq!(ov.levels(), ov.nets().levels());
        assert_eq!(ov.alive_count(), 32);
        for (j, net) in ov.nets().iter() {
            for v in space.nodes() {
                assert_eq!(ov.is_net_member(j, v), net.contains(v));
            }
        }
        // Level 0 is everything; the top level is a single hub.
        assert!((0..32).all(|i| ov.is_net_member(0, Node::new(i))));
        let top = ov.levels() - 1;
        let hubs = (0..32)
            .filter(|&i| ov.is_net_member(top, Node::new(i)))
            .count();
        assert_eq!(hubs, 1);
    }

    #[test]
    fn fingers_respect_net_radii() {
        let (space, ov) = overlay();
        for s in space.nodes() {
            for j in 0..ov.levels() {
                let (d, f) = ov.finger(&space, s, j).expect("static nets are full");
                assert!(ov.is_net_member(j, f));
                assert!(d <= ov.nets().radius(j) + 1e-12, "covering at level {j}");
            }
        }
    }

    #[test]
    fn pristine_rows_are_the_built_rings_and_match_the_oracle() {
        let (space, ov) = overlay();
        for u in space.nodes() {
            for j in 0..ov.levels() {
                let built = ov.rings().ring(u, j).expect("all levels built");
                assert_eq!(built.members(), ov.control.ring(u, j), "node {u} level {j}");
            }
        }
        ov.control.assert_rows_match_the_oracle(&space, "pristine");
    }

    #[test]
    fn top_level_of_finds_hubs() {
        let (_, ov) = overlay();
        let top = ov.levels() - 1;
        let hub = (0..32)
            .map(Node::new)
            .find(|&v| ov.is_net_member(top, v))
            .unwrap();
        assert_eq!(ov.top_level_of(hub), Some(top));
        assert_eq!(ov.total_entries(), 0);
        assert_eq!(ov.entries_at(hub), 0);
    }

    #[test]
    #[should_panic(expected = "delivery guarantee")]
    fn small_ring_factor_rejected() {
        let space = Space::new(LineMetric::uniform(8).unwrap());
        let nets = NestedNets::build(&space);
        let rings = RingFamily::from_nets(&space, &nets, |_, r| Some(1.5 * r));
        let _ = DirectoryOverlay::from_structures(space.len(), nets, rings, 1.5);
    }
}
