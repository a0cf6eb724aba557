//! The directory's control plane: membership, the publish rings, registry
//! and placement state, the membership rules (`leave`, `join`) and the
//! one reader of a ladder level (fingers, rings, zoom chains), and the
//! repair *planner*.
//!
//! The state and its rules are written once, in [`RepairAuthority`].
//! A [`DirectoryOverlay`] owns one next to its pointer tables (the data
//! plane) and [`DirectoryOverlay::repair`] plans on it in place. The
//! simulator's coordinator plans on a copy
//! ([`DirectoryOverlay::control_plane`]), completes each [`NodeRepair`]
//! into everything the epoch does to that node's slice
//! ([`RepairAuthority::plan_slices`]) and only ships them.
//!
//! [`DirectoryOverlay`]: crate::DirectoryOverlay
//! [`DirectoryOverlay::repair`]: crate::DirectoryOverlay::repair
//! [`DirectoryOverlay::control_plane`]: crate::DirectoryOverlay::control_plane
//!
//! The planner asks a [`RepairOracle`] for distances, nearest members
//! and balls: [`Space`] through its [`BallOracle`] in process,
//! [`ScanOracle`] over a bare distance function in the simulator. Both
//! visit in `(distance, node id)` order, so both plan byte-identically.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ron_core::RingFamily;
use ron_metric::mem::vec_capacity_bytes;
use ron_metric::{BallOracle, Metric, Node, Space};
use ron_nets::NestedNets;

use crate::churn::RepairReport;
use crate::directory::{IdMap, ObjectId, Placement};
use crate::tables::Bits;

/// The geometric queries repair planning needs, in the ascending
/// `(distance, node id)` visit order of
/// [`BallOracle`].
pub trait RepairOracle {
    /// Metric distance between two nodes.
    fn dist(&self, u: Node, v: Node) -> f64;

    /// Nearest node to `u` (inclusive) satisfying `pred`, ties broken by
    /// node id.
    fn nearest_where(&self, u: Node, pred: &mut dyn FnMut(Node) -> bool) -> Option<(f64, Node)>;

    /// Visits every node of the closed ball `B_u(r)` in ascending
    /// `(distance, id)` order.
    fn ball(&self, u: Node, r: f64, visit: &mut dyn FnMut(Node));

    /// [`ball`](Self::ball) in no stated order, for callers that mark,
    /// with each node's distance: a node is in `B_u(r')` for `r' <= r`
    /// iff that distance is at most `r'`.
    fn ball_unordered(&self, u: Node, r: f64, visit: &mut dyn FnMut(f64, Node)) {
        self.ball(u, r, &mut |v| visit(self.dist(u, v), v));
    }
}

impl<M: Metric, I: BallOracle> RepairOracle for Space<M, I> {
    fn dist(&self, u: Node, v: Node) -> f64 {
        Space::dist(self, u, v)
    }

    fn nearest_where(&self, u: Node, pred: &mut dyn FnMut(Node) -> bool) -> Option<(f64, Node)> {
        self.index().nearest_where(u, pred)
    }

    fn ball(&self, u: Node, r: f64, visit: &mut dyn FnMut(Node)) {
        self.index().for_each_in_ball(u, r, &mut |_, v| visit(v));
    }

    fn ball_unordered(&self, u: Node, r: f64, visit: &mut dyn FnMut(f64, Node)) {
        self.index().for_each_in_ball_unordered(u, r, visit);
    }
}

/// A [`RepairOracle`] over a bare distance function: every query is an
/// `O(n)` scan (plus a sort for balls) in `(distance, id)` order —
/// exactly the order the indexed backends answer in, so a planner
/// running on a scan oracle reproduces the indexed plan bit for bit.
///
/// This is what the simulator's repair coordinator uses: a simulated
/// node holds no ball index, only the engine's distance oracle
/// (geometric awareness is local knowledge, Definition 5.1).
pub struct ScanOracle<'a> {
    n: usize,
    dist: &'a dyn Fn(Node, Node) -> f64,
}

impl<'a> ScanOracle<'a> {
    /// Wraps a distance function over `n` nodes.
    #[must_use]
    pub fn new(n: usize, dist: &'a dyn Fn(Node, Node) -> f64) -> Self {
        ScanOracle { n, dist }
    }
}

impl RepairOracle for ScanOracle<'_> {
    fn dist(&self, u: Node, v: Node) -> f64 {
        (self.dist)(u, v)
    }

    fn nearest_where(&self, u: Node, pred: &mut dyn FnMut(Node) -> bool) -> Option<(f64, Node)> {
        let mut best: Option<(f64, Node)> = None;
        for i in 0..self.n {
            let v = Node::new(i);
            let d = (self.dist)(u, v);
            let closer = match best {
                Some((bd, bv)) => d < bd || (d == bd && v < bv),
                None => true,
            };
            if closer && pred(v) {
                best = Some((d, v));
            }
        }
        best
    }

    fn ball(&self, u: Node, r: f64, visit: &mut dyn FnMut(Node)) {
        let mut hits: Vec<(f64, Node)> = (0..self.n)
            .map(|i| ((self.dist)(u, Node::new(i)), Node::new(i)))
            .filter(|&(d, _)| d <= r)
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, v) in hits {
            visit(v);
        }
    }
}

/// One pointer-table operation at one node: install the entry
/// (`target = Some(next)`) or delete it (`target = None`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PointerOp {
    /// Ladder level of the entry.
    pub level: usize,
    /// The object the entry is for.
    pub obj: ObjectId,
    /// Chain node the entry forwards to, or `None` to delete.
    pub target: Option<Node>,
}

/// What one repair epoch does to one node's slice: reset it (a fresh
/// joiner), the net levels it enters, the fingers and publish rings it
/// replaces, the objects it adopts and its pointer-table operations.
/// [`RepairAuthority::plan_repair`] fills in the promotions, adoptions
/// and operations, which is all the in-process path applies (it reads
/// fingers and rings on demand); [`RepairAuthority::plan_slices`] adds
/// the rest for the simulator, which ships one per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRepair {
    /// The node this slice of the plan belongs to.
    pub node: Node,
    /// Start from an empty slice: no memberships, entries or objects.
    pub reset: bool,
    /// Net levels the node enters.
    pub promote: Vec<usize>,
    /// `(level, finger, ring)` replacements, ascending by level.
    pub levels: Vec<(usize, Option<Node>, Vec<Node>)>,
    /// Objects newly homed at this node.
    pub adopt: Vec<ObjectId>,
    /// Pointer-table writes and deletes.
    pub ops: Vec<PointerOp>,
}

impl NodeRepair {
    fn new(node: Node) -> Self {
        NodeRepair {
            node,
            reset: false,
            promote: Vec::new(),
            levels: Vec::new(),
            adopt: Vec::new(),
            ops: Vec::new(),
        }
    }
}

/// The output of one [`RepairAuthority::plan_repair`] call: the global
/// decisions (promotion count, re-homings, touched objects) plus the
/// per-node work list.
#[derive(Clone, Debug, Default)]
pub struct RepairPlan {
    /// Net-level insertions decided by the covering pass.
    pub promotions: usize,
    /// Objects migrated to a new home because theirs died.
    pub rehomed: Vec<(ObjectId, Node)>,
    /// Objects whose placement was reconciled.
    pub objects_touched: usize,
    /// Per level, the nodes whose membership there changed in the epoch
    /// (leaves, joins, promotions), in the order they changed.
    pub touched: Vec<Vec<Node>>,
    /// Per-node work, in first-touch order (node order after
    /// [`RepairAuthority::plan_slices`]).
    pub node_repairs: Vec<NodeRepair>,
    /// Updated placements, applied to the overlay's bookkeeping.
    pub(crate) placements: Vec<(ObjectId, Placement)>,
    /// Row insertions the promotions made: `(level, new member, the
    /// nodes within c·r_level of it)`, replayed by a control plane that
    /// did not plan the epoch.
    pub(crate) row_insertions: Vec<(usize, Node, Vec<Node>)>,
    /// Per level `j`, the alive nodes whose row at `j` holds a node
    /// touched at `j`, ascending (see `ring_marks`).
    pub(crate) marks: Vec<Vec<Node>>,
}

impl RepairPlan {
    /// The plan's global counters as a [`RepairReport`] with the
    /// write/delete counts still zero — those are counted where the
    /// table operations execute (the overlay in process, the owning
    /// nodes' acks in the simulator).
    #[must_use]
    pub fn report_base(&self) -> RepairReport {
        RepairReport {
            promotions: self.promotions,
            rehomed: self.rehomed.len(),
            objects_touched: self.objects_touched,
            ..RepairReport::default()
        }
    }
}

/// How the pointer pass picks the objects it reconciles and reads
/// whether an object's ring changed at a level.
#[derive(Clone, Copy)]
enum PointerPass {
    /// From the epoch's ring marks (see
    /// [`RepairAuthority::plan_repair`]).
    Marks,
    /// The reference the tests hold the marks to: every object's home
    /// checked for death, and every object asked
    /// `ring_touched(self, oracle, touched, home, level)`, its chain
    /// recomputed at every level.
    #[cfg(test)]
    Scan(fn(&RepairAuthority, &dyn RepairOracle, &Bits, Node, usize) -> bool),
}

/// The directory's control plane: the dynamic net ladder, the publish
/// rings, alive flags, touched sets, the object registry and the
/// per-object placements — everything **except** the pointer tables,
/// which stay at the owning nodes (the data plane).
///
/// Whoever reads a ladder level (the overlay, the planner, a capture,
/// `partition`, the simulator's coordinator) reads it here: `ring`,
/// `finger` and `chain` filter the stored rows by membership.
///
/// A [`DirectoryOverlay`] owns one and mutates it through `publish`,
/// `leave`, `join` and `repair`; the simulator's coordinator node
/// carries a copy ([`DirectoryOverlay::control_plane`]) and evolves it
/// across churn epochs (see `ron-sim`'s directory driver).
///
/// [`DirectoryOverlay`]: crate::DirectoryOverlay
/// [`DirectoryOverlay::control_plane`]: crate::DirectoryOverlay::control_plane
#[derive(Clone, Debug)]
pub struct RepairAuthority {
    pub(crate) ring_factor: f64,
    pub(crate) radii: Vec<f64>,
    /// Dynamic net membership: bit `v` of `member[j]` iff `v` is an
    /// *alive* member of the level-`j` net. Starts as the static ladder.
    pub(crate) member: Vec<Bits>,
    /// The publish rings `B_u(c r_j) ∩ G_j` as built, shared by copies.
    pub(crate) rings: Arc<RingFamily>,
    /// `(level, node)` rows copied out of `rings` because they gained a
    /// member the static ladder lacked; empty at build.
    pub(crate) grown: IdMap<(usize, Node), Vec<Node>>,
    /// Nodes whose level-`j` membership changed since the last repair.
    pub(crate) touched: Vec<Vec<Node>>,
    pub(crate) alive: Vec<bool>,
    pub(crate) alive_count: usize,
    /// Published objects in publish order (deterministic iteration).
    pub(crate) objects: Vec<ObjectId>,
    pub(crate) homes: IdMap<ObjectId, Node>,
    /// The objects homed at each node, as lists of positions in
    /// `objects`, in no order: `homed[v]` heads `v`'s list and
    /// `next_homed[p]` follows position `p` ([`NO_OBJECT`] ends a list).
    pub(crate) homed: Vec<u32>,
    pub(crate) next_homed: Vec<u32>,
    pub(crate) placements: HashMap<ObjectId, Placement>,
}

/// Ends a list of [`RepairAuthority::homed`] positions.
const NO_OBJECT: u32 = u32::MAX;

impl RepairAuthority {
    /// The pristine control plane over a static ladder and its publish
    /// rings: everyone alive, membership as built, nothing published.
    pub(crate) fn from_nets(nets: &NestedNets, rings: RingFamily, ring_factor: f64) -> Self {
        let (n, levels) = (rings.len(), nets.levels());
        RepairAuthority {
            ring_factor,
            radii: (0..levels).map(|j| nets.radius(j)).collect(),
            member: (0..levels)
                .map(|j| {
                    let net = nets.net(j);
                    let flags: Vec<bool> = Node::all(n).map(|v| net.contains(v)).collect();
                    Bits::from_bools(&flags)
                })
                .collect(),
            rings: Arc::new(rings),
            grown: IdMap::default(),
            touched: vec![Vec::new(); levels],
            alive: vec![true; n],
            alive_count: n,
            objects: Vec::new(),
            homes: IdMap::default(),
            homed: vec![NO_OBJECT; n],
            next_homed: Vec::new(),
            placements: HashMap::new(),
        }
    }

    /// Registers a newly published object, homed at `home` and placed
    /// at `placement`.
    pub(crate) fn register(&mut self, obj: ObjectId, home: Node, placement: Placement) {
        let p = u32::try_from(self.objects.len()).expect("objects fit a u32 position");
        self.objects.push(obj);
        self.next_homed.push(NO_OBJECT);
        self.link_home(p, home);
        self.homes.insert(obj, home);
        self.placements.insert(obj, placement);
    }

    /// Rebuilds the per-home lists after `objects` lost an entry (an
    /// unpublish shifts the positions).
    pub(crate) fn reindex(&mut self) {
        self.homed.fill(NO_OBJECT);
        self.next_homed.clear();
        self.next_homed.resize(self.objects.len(), NO_OBJECT);
        for p in 0..self.objects.len() {
            let home = self.homes[&self.objects[p]];
            self.link_home(p as u32, home);
        }
    }

    /// Puts position `p` on `home`'s list.
    fn link_home(&mut self, p: u32, home: Node) {
        self.next_homed[p as usize] = self.homed[home.index()];
        self.homed[home.index()] = p;
    }

    /// Empties `home`'s list, appending its positions to `out`.
    fn take_homed(&mut self, home: Node, out: &mut Vec<u32>) {
        let mut p = std::mem::replace(&mut self.homed[home.index()], NO_OBJECT);
        while p != NO_OBJECT {
            out.push(p);
            p = self.next_homed[p as usize];
        }
    }

    /// The positions homed at `v`, in no order.
    fn homed_at(&self, v: Node) -> impl Iterator<Item = u32> + '_ {
        let first = self.homed[v.index()];
        std::iter::successors((first != NO_OBJECT).then_some(first), |&p| {
            let next = self.next_homed[p as usize];
            (next != NO_OBJECT).then_some(next)
        })
    }

    /// Heap bytes of the per-home lists.
    pub(crate) fn index_bytes(&self) -> usize {
        vec_capacity_bytes(&self.homed) + vec_capacity_bytes(&self.next_homed)
    }

    /// Number of nodes (alive or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether the control plane tracks no nodes (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Number of ladder levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.radii.len()
    }

    /// Whether `v` is currently alive in the control plane's view.
    #[must_use]
    pub fn is_alive(&self, v: Node) -> bool {
        self.alive[v.index()]
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// The current home of `obj`, if registered.
    #[must_use]
    pub fn home_of(&self, obj: ObjectId) -> Option<Node> {
        self.homes.get(&obj).copied()
    }

    /// Records that `v` left: vacates its net memberships and marks the
    /// touched levels. No row changes: reads filter by membership.
    /// (The node's pointer tables die with it; the overlay clears its
    /// data plane in [`leave`](crate::DirectoryOverlay::leave).)
    ///
    /// # Panics
    ///
    /// Panics if `v` is already dead or is the last alive node.
    pub fn note_leave(&mut self, v: Node) {
        assert!(self.alive[v.index()], "{v} is already dead");
        assert!(self.alive_count > 1, "cannot remove the last alive node");
        self.alive[v.index()] = false;
        self.alive_count -= 1;
        for j in 0..self.levels() {
            if self.member[j].get(v.index()) {
                self.member[j].set(v.index(), false);
                self.touched[j].push(v);
            }
        }
    }

    /// Records that `v` joined: marks it alive and inserts it greedily
    /// into the ladder (level 0 always; each coarser level while the
    /// separation `>= r_j` to the nearest member holds, preserving
    /// nesting).
    ///
    /// # Panics
    ///
    /// Panics if `v` is already alive.
    pub fn note_join(&mut self, oracle: &dyn RepairOracle, v: Node) {
        assert!(!self.alive[v.index()], "{v} is already alive");
        self.alive[v.index()] = true;
        self.alive_count += 1;
        self.insert_member(oracle, 0, v);
        for j in 1..self.levels() {
            // An empty ring means no member within c·r_j >= r_j.
            let separated = self
                .nearest_in_ring(oracle, v, j)
                .is_none_or(|(d, _)| d >= self.radii[j]);
            if !separated {
                break;
            }
            self.insert_member(oracle, j, v);
        }
    }

    /// Makes `v` a member at `level`. If no row holds `v` there yet (then
    /// not even its own), one ball query at `c·r_level` finds the rows it
    /// belongs in; they are returned so a detached plan can replay it.
    fn insert_member(&mut self, o: &dyn RepairOracle, level: usize, v: Node) -> Option<Vec<Node>> {
        if self.member[level].get(v.index()) {
            return None;
        }
        self.member[level].set(v.index(), true);
        self.touched[level].push(v);
        if self.row(v, level).binary_search(&v).is_ok() {
            return None;
        }
        let mut reach = Vec::new();
        o.ball(v, self.ring_factor * self.radii[level], &mut |u| {
            reach.push(u)
        });
        self.grow_rows(level, v, &reach);
        Some(reach)
    }

    /// Inserts `v`, in id order, into the level-`level` row of every node
    /// of `reach`, copying a built row the first time it grows.
    fn grow_rows(&mut self, level: usize, v: Node, reach: &[Node]) {
        for &u in reach {
            let built = || self.rings.ring(u, level).expect("every level is built");
            let row = self
                .grown
                .entry((level, u))
                .or_insert_with(|| built().members().to_vec());
            if let Err(at) = row.binary_search(&v) {
                row.insert(at, v);
            }
        }
    }

    /// The row of `s` at `level`, id-sorted: every current member within
    /// `c·r_level` of `s`, and possibly some that left (a leave touches
    /// no row).
    fn row(&self, s: Node, level: usize) -> &[Node] {
        let built = || self.rings.ring(s, level).expect("every level is built");
        let grown = self.grown.get(&(level, s));
        grown.map_or_else(|| built().members(), Vec::as_slice)
    }

    /// The publish ring of `s` at `level`, `B_s(c r_level) ∩ G_level`
    /// under the current membership: the row filtered, in id order.
    pub(crate) fn ring(&self, s: Node, level: usize) -> Vec<Node> {
        let (row, member) = (self.row(s, level), &self.member[level]);
        let mut ring = Vec::with_capacity(row.len());
        ring.extend(row.iter().filter(|v| member.get(v.index())));
        ring
    }

    /// The nearest member of the ring, ties to the lower id as in the
    /// oracle's `(distance, id)` order; `None` iff no member is within
    /// `c·r_level >= r_level`, so tests against `r_level` read it alone.
    fn nearest_in_ring<O: RepairOracle + ?Sized>(
        &self,
        oracle: &O,
        s: Node,
        level: usize,
    ) -> Option<(f64, Node)> {
        let member = &self.member[level];
        let ring = self.row(s, level).iter().filter(|v| member.get(v.index()));
        let mut best: Option<(f64, Node)> = None;
        for &v in ring {
            let d = oracle.dist(s, v);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, v));
            }
        }
        best
    }

    /// The finger of `s` at `level`: the nearest alive member of the
    /// dynamic level-`level` net (with its distance), or `None` if the
    /// level has no members left. The oracle is asked only when the ring
    /// is empty: between a leave and its repair, or at a dead node.
    pub(crate) fn finger<O: RepairOracle + ?Sized>(
        &self,
        oracle: &O,
        s: Node,
        level: usize,
    ) -> Option<(f64, Node)> {
        self.finger_and_fallback(oracle, s, level).0
    }

    /// [`finger`](Self::finger), and whether the oracle answered it (the
    /// ring was empty).
    pub(crate) fn finger_and_fallback<O: RepairOracle + ?Sized>(
        &self,
        oracle: &O,
        s: Node,
        level: usize,
    ) -> (Option<(f64, Node)>, bool) {
        match self.nearest_in_ring(oracle, s, level) {
            Some(hit) => (Some(hit), false),
            None => {
                let member = &self.member[level];
                (
                    oracle.nearest_where(s, &mut |v| member.get(v.index())),
                    true,
                )
            }
        }
    }

    /// The home's zoom chain under the current membership: `chain[j]` is
    /// the finger of `home` at level `j`. A level emptied by churn
    /// (possible between a `leave` and the next repair) contributes the
    /// home itself, so entries above it forward straight to the home
    /// instead of into a void — the descent recognises arrival at the
    /// home (see [`WalkStep`](crate::WalkStep)) and such a publish still
    /// serves.
    pub(crate) fn chain<O: RepairOracle + ?Sized>(&self, oracle: &O, home: Node) -> Vec<Node> {
        (0..self.levels())
            .map(|j| self.finger(oracle, home, j).map_or(home, |(_, f)| f))
            .collect()
    }

    /// Plans one repair epoch over the accumulated touched sets:
    /// covering promotions, re-homings and pointer reconciliation; then
    /// moves the touched sets into the plan and updates the control
    /// plane's registry and placements. The caller applies the plan's
    /// pointer operations (directly, or by fanning them out as messages).
    ///
    /// Every pass costs what changed since the last repair.
    ///
    /// *Covering.* The nets are `r_j`-covering after every repair (and
    /// at build), and between repairs only a leave removes a member. So
    /// at level `j` a node can be uncovered only if a level-`j` member
    /// within `r_j` of it left, or if the node itself joined since. The
    /// pass visits just those candidates, in ascending id order. Promotions
    /// only add members, so every other node is covered and stays covered:
    /// the plan is the one a scan of all nodes would make.
    ///
    /// *Homes.* Every alive node is a level-0 member, so a home that died
    /// since the last repair is a dead node touched at level 0; only its
    /// objects are re-homed.
    ///
    /// *Pointers.* A chain point at level `j` can only drift if membership
    /// changed strictly nearer to the home than the old point, and after
    /// the covering pass any such change shows up as a touched node
    /// inside the publish radius, in the home's row at `j` (a leaver
    /// stays in every row, an inserted member enters every row within
    /// reach). One ball at `c·r_j` around each node touched at `j` marks
    /// the alive nodes whose row holds one, so the pass visits only the
    /// objects homed at a marked node and the re-homed ones, in publish
    /// order (a publish places its object, and in a metric only the home
    /// is at distance 0, so a chain starts at its home until a re-homing).
    /// After covering every alive ring is nonempty and a
    /// finger is its ring's nearest member, so `chain[j]` is recomputed
    /// only where the home is marked at `j` (everywhere if it moved).
    pub fn plan_repair(&mut self, oracle: &dyn RepairOracle) -> RepairPlan {
        self.plan_with(oracle, Self::covering_candidates, PointerPass::Marks)
    }

    /// The nodes that can be uncovered at `level` (see
    /// [`plan_repair`](Self::plan_repair)): the alive non-members within
    /// `r_level` of a level member that left since the last repair, and
    /// the joiners since then; ascending, each once.
    fn covering_candidates(&self, oracle: &dyn RepairOracle, level: usize) -> Vec<Node> {
        let member = &self.member[level];
        let open = |u: Node| self.alive[u.index()] && !member.get(u.index());
        let reach = self.radii[level] * (1.0 + 1e-9);
        let mut out = Vec::new();
        let departed = self.touched[level]
            .iter()
            .filter(|m| !member.get(m.index()));
        for &m in departed {
            oracle.ball_unordered(m, reach, &mut |_, u| {
                if open(u) {
                    out.push(u);
                }
            });
        }
        out.extend(self.touched[0].iter().copied().filter(|&v| open(v)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// [`plan_repair`](Self::plan_repair) with the covering pass visiting
    /// `candidates(self, oracle, level)` at each level, and the pointer
    /// pass picking its objects and changed rings as `pass` says.
    fn plan_with(
        &mut self,
        oracle: &dyn RepairOracle,
        candidates: fn(&Self, &dyn RepairOracle, usize) -> Vec<Node>,
        pass: PointerPass,
    ) -> RepairPlan {
        let _stage = ron_obs::stage("repair");
        let levels = self.levels();
        let mut plan = RepairPlan::default();
        let mut index: IdMap<Node, usize> = IdMap::default();
        let mut bucket = |plan: &mut RepairPlan, w: Node| -> usize {
            *index.entry(w).or_insert_with(|| {
                plan.node_repairs.push(NodeRepair::new(w));
                plan.node_repairs.len() - 1
            })
        };

        // Covering pass: promote uncovered candidates, coarse-compatible
        // (a node promoted to level j joins every finer level too).
        let t_covering = ron_obs::start();
        for j in 1..levels {
            let candidates = candidates(self, oracle, j);
            if ron_obs::enabled() {
                ron_obs::count_labeled(
                    "repair.covering.candidates",
                    ron_obs::label(&format!("level{j}")),
                    candidates.len() as u64,
                );
            }
            for u in candidates {
                if !self.alive[u.index()] || self.member[j].get(u.index()) {
                    continue;
                }
                let covered = self
                    .nearest_in_ring(oracle, u, j)
                    .is_some_and(|(d, _)| d <= self.radii[j] * (1.0 + 1e-12));
                if covered {
                    continue;
                }
                for k in 1..=j {
                    if !self.member[k].get(u.index()) {
                        if let Some(reach) = self.insert_member(oracle, k, u) {
                            plan.row_insertions.push((k, u, reach));
                        }
                        plan.promotions += 1;
                        let b = bucket(&mut plan, u);
                        plan.node_repairs[b].promote.push(k);
                    }
                }
            }
        }

        ron_obs::finish("repair.plan.covering", t_covering);

        // Homes pass: re-home the objects of the homes that died to the
        // nearest alive node, in publish order.
        let t_homes = ron_obs::start();
        let dead_homes: Vec<Node> = match pass {
            PointerPass::Marks => self.touched[0].clone(),
            #[cfg(test)]
            PointerPass::Scan(_) => self.objects.iter().map(|obj| self.homes[obj]).collect(),
        };
        let mut orphans = Vec::new();
        for v in dead_homes {
            if !self.alive[v.index()] {
                self.take_homed(v, &mut orphans);
            }
        }
        orphans.sort_unstable();
        for &p in &orphans {
            let obj = self.objects[p as usize];
            let home = self.homes[&obj];
            let (_, new_home) = oracle
                .nearest_where(home, &mut |v| self.alive[v.index()])
                .expect("at least one node stays alive");
            self.homes.insert(obj, new_home);
            self.link_home(p, new_home);
            plan.rehomed.push((obj, new_home));
            let b = bucket(&mut plan, new_home);
            plan.node_repairs[b].adopt.push(obj);
        }

        ron_obs::finish("repair.plan.homes", t_homes);

        // Pointer pass: reconcile each object whose rings or chain could
        // have changed (the marks argued in the method docs).
        let t_pointers = ron_obs::start();
        plan.marks = self.ring_marks(oracle, &self.touched);
        let visit: Vec<u32> = match pass {
            PointerPass::Marks => {
                let mut visit = orphans;
                for &v in plan.marks.iter().flatten() {
                    visit.extend(self.homed_at(v));
                }
                visit.sort_unstable();
                visit.dedup();
                visit
            }
            #[cfg(test)]
            PointerPass::Scan(_) => (0..self.objects.len() as u32).collect(),
        };
        #[cfg(test)]
        let touched: Vec<Bits> = self
            .touched
            .iter()
            .map(|nodes| {
                let mut bits = Bits::zeros(self.len());
                for v in nodes {
                    bits.set(v.index(), true);
                }
                bits
            })
            .collect();
        let mut ring_changed = vec![false; levels];
        let mut drifted = vec![false; levels];
        let mut refresh = vec![false; levels];
        for &p in &visit {
            let obj = self.objects[p as usize];
            let home = self.homes[&obj];
            let moved = self.placements.get(&obj).and_then(|pl| pl.chain.first()) != Some(&home);
            for (j, slot) in ring_changed.iter_mut().enumerate() {
                *slot = match pass {
                    PointerPass::Marks => plan.marks[j].binary_search(&home).is_ok(),
                    #[cfg(test)]
                    PointerPass::Scan(ring_touched) => {
                        ring_touched(self, oracle, &touched[j], home, j)
                    }
                };
            }
            if !moved && !ring_changed.contains(&true) {
                continue;
            }
            plan.objects_touched += 1;
            let old = self.placements.remove(&obj).unwrap_or_default();

            // Every level where the home moved (and in the reference
            // scan); else only where its ring changed.
            let mut chain = old.chain;
            drifted.fill(false);
            if moved || !matches!(pass, PointerPass::Marks) {
                let new_chain = self.chain(oracle, home);
                for (j, slot) in drifted.iter_mut().enumerate() {
                    *slot = chain.get(j) != Some(&new_chain[j]);
                }
                chain = new_chain;
            } else {
                for j in (0..levels).filter(|&j| ring_changed[j]) {
                    let f = self.finger(oracle, home, j).map_or(home, |(_, f)| f);
                    drifted[j] = chain[j] != f;
                    chain[j] = f;
                }
            }
            for (j, slot) in refresh.iter_mut().enumerate() {
                *slot = moved || ring_changed[j] || (j > 0 && drifted[j - 1]);
            }

            // The refreshed levels' entries leave the placement, in order.
            let mut entries = old.entries;
            let dropped: Vec<(usize, Node)> = entries.extract_if(.., |e| refresh[e.0]).collect();
            for (level, _) in refresh.iter().enumerate().filter(|&(_, &r)| r) {
                let ring = self.ring(home, level);
                let target = if level == 0 { home } else { chain[level - 1] };
                // Delete stale entries from alive nodes that left the
                // ring (a dead holder's table died with it).
                for &(l, w) in &dropped {
                    if l == level && self.alive[w.index()] && ring.binary_search(&w).is_err() {
                        let b = bucket(&mut plan, w);
                        plan.node_repairs[b].ops.push(PointerOp {
                            level,
                            obj,
                            target: None,
                        });
                    }
                }
                // Written nearest first, in `(distance, id)` order.
                let mut desired: Vec<(f64, Node)> = ring
                    .into_iter()
                    .map(|w| (oracle.dist(home, w), w))
                    .collect();
                desired.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for (_, w) in desired {
                    let b = bucket(&mut plan, w);
                    plan.node_repairs[b].ops.push(PointerOp {
                        level,
                        obj,
                        target: Some(target),
                    });
                    entries.push((level, w));
                }
            }
            let placement = Placement { chain, entries };
            plan.placements.push((obj, placement.clone()));
            self.placements.insert(obj, placement);
        }
        ron_obs::count("repair.plan.objects_visited", visit.len() as u64);
        ron_obs::count(
            "repair.plan.marked",
            plan.marks.iter().map(Vec::len).sum::<usize>() as u64,
        );

        ron_obs::finish("repair.plan.pointers", t_pointers);

        plan.touched = std::mem::replace(&mut self.touched, vec![Vec::new(); levels]);
        plan
    }

    /// Replays a plan's control-plane decisions — promotions, row
    /// insertions, re-homings, placements, consumed touched sets — onto
    /// a control plane that did not plan it (the planner's own copy
    /// already holds them). Asks no oracle.
    pub(crate) fn absorb(&mut self, plan: &RepairPlan) {
        for nr in &plan.node_repairs {
            for &level in &nr.promote {
                self.member[level].set(nr.node.index(), true);
            }
        }
        for (level, v, reach) in &plan.row_insertions {
            self.grow_rows(*level, *v, reach);
        }
        // Every object of a home that died is re-homed, in publish order.
        let mut orphans = Vec::new();
        for &(obj, _) in &plan.rehomed {
            let home = self.homes[&obj];
            self.take_homed(home, &mut orphans);
        }
        orphans.sort_unstable();
        for (&p, &(obj, new_home)) in orphans.iter().zip(&plan.rehomed) {
            debug_assert_eq!(self.objects[p as usize], obj);
            self.homes.insert(obj, new_home);
            self.link_home(p, new_home);
        }
        // ron-lint: allow(map-order): `RepairPlan::placements` is a
        // Vec in deterministic plan order (the control plane's hash
        // registry shares the field name); keyed inserts commute anyway.
        for (obj, placement) in &plan.placements {
            self.placements.insert(*obj, placement.clone());
        }
        for touched in &mut self.touched {
            touched.clear();
        }
    }

    /// Completes an epoch's plan, made by [`plan_repair`](Self::plan_repair)
    /// on this control plane, into everything the epoch does to each
    /// slice, one [`NodeRepair`] per node in node order:
    ///
    /// * an alive `v` replaces its finger and ring at `j` iff its row at
    ///   `j` holds a node touched at `j`: the marks the pointer pass
    ///   visited by (after a repair every ring is nonempty, so a finger
    ///   is its ring's nearest member and moves only with it);
    /// * a joiner's slice may predate several epochs, so it resets and
    ///   receives the whole slice [`partition`] would give it.
    ///
    /// [`partition`]: crate::DirectoryOverlay::partition
    pub fn plan_slices(&self, oracle: &dyn RepairOracle, plan: &mut RepairPlan) {
        let mut repairs: BTreeMap<Node, NodeRepair> = plan
            .node_repairs
            .drain(..)
            .map(|nr| (nr.node, nr))
            .collect();
        let joiners = plan.touched[0].iter().filter(|v| self.alive[v.index()]);
        for &v in joiners {
            let nr = repairs.entry(v).or_insert_with(|| NodeRepair::new(v));
            let mut homed: Vec<u32> = self.homed_at(v).collect();
            homed.sort_unstable();
            let homed = homed.iter().map(|&p| self.objects[p as usize]).collect();
            let ops = std::mem::take(&mut nr.ops);
            *nr = NodeRepair {
                reset: true,
                ops,
                ..self.slice(oracle, v, homed)
            };
        }
        for (j, marked) in plan.marks.iter().enumerate() {
            for &v in marked {
                let nr = repairs.entry(v).or_insert_with(|| NodeRepair::new(v));
                if !nr.reset {
                    nr.levels.push(self.level_view(oracle, v, j));
                }
            }
        }
        plan.node_repairs = repairs.into_values().collect();
    }

    /// Per level `j`, the alive nodes whose row at `j` holds a node of
    /// `touched[j]`, ascending: a row is the ball at `c·r_j`, so one
    /// ball per touched node, at the coarsest level it was touched at,
    /// finds them.
    fn ring_marks(&self, oracle: &dyn RepairOracle, touched: &[Vec<Node>]) -> Vec<Vec<Node>> {
        let radius = |j: usize| self.ring_factor * self.radii[j];
        let mut marks = vec![Vec::new(); touched.len()];
        for (t, levels) in by_node(touched) {
            let coarsest = levels[levels.len() - 1];
            oracle.ball_unordered(t, radius(coarsest), &mut |d, v| {
                if self.alive[v.index()] {
                    for &j in levels.iter().rev().take_while(|&&j| d <= radius(j)) {
                        marks[j].push(v);
                    }
                }
            });
        }
        for marked in &mut marks {
            marked.sort_unstable();
            marked.dedup();
        }
        marks
    }

    /// `v`'s finger and publish ring at `level`, as a slice holds them.
    fn level_view(
        &self,
        oracle: &dyn RepairOracle,
        v: Node,
        level: usize,
    ) -> (usize, Option<Node>, Vec<Node>) {
        let finger = self.finger(oracle, v, level).map(|(_, f)| f);
        (level, finger, self.ring(v, level))
    }

    /// `v`'s whole slice as a delta from an empty one: the net levels it
    /// is a member of, every level's finger and ring, and `homed`.
    pub(crate) fn slice(
        &self,
        oracle: &dyn RepairOracle,
        v: Node,
        homed: Vec<ObjectId>,
    ) -> NodeRepair {
        let levels = 0..self.levels();
        NodeRepair {
            promote: levels
                .clone()
                .filter(|&j| self.member[j].get(v.index()))
                .collect(),
            levels: levels.map(|j| self.level_view(oracle, v, j)).collect(),
            adopt: homed,
            ..NodeRepair::new(v)
        }
    }
}

/// The `(node, level)` pairs of per-level node lists, grouped by node:
/// each node once, ascending, with its levels ascending.
pub(crate) fn by_node(per_level: &[Vec<Node>]) -> Vec<(Node, Vec<usize>)> {
    let mut pairs: Vec<(Node, usize)> = per_level
        .iter()
        .enumerate()
        .flat_map(|(j, nodes)| nodes.iter().map(move |&v| (v, j)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut out: Vec<(Node, Vec<usize>)> = Vec::new();
    for (v, j) in pairs {
        match out.last_mut() {
            Some((last, levels)) if *last == v => levels.push(j),
            _ => out.push((v, vec![j])),
        }
    }
    out
}

/// The reads' definitions, asked of the oracle, for the tests.
#[cfg(test)]
impl RepairAuthority {
    /// [`plan_repair`](Self::plan_repair) with the covering pass visiting
    /// `candidates(self, oracle, level)` at each level, and the pointer
    /// pass reconciling every object, asking `ring_touched(self, oracle,
    /// touched, home, level)` whether its level-`level` ring saw a change.
    pub(crate) fn plan(
        &mut self,
        oracle: &dyn RepairOracle,
        candidates: fn(&Self, &dyn RepairOracle, usize) -> Vec<Node>,
        ring_touched: fn(&Self, &dyn RepairOracle, &Bits, Node, usize) -> bool,
    ) -> RepairPlan {
        self.plan_with(oracle, candidates, PointerPass::Scan(ring_touched))
    }

    /// Panics unless every `(node, level)` finger is the oracle's nearest
    /// member and every ring the oracle's ball at `c·r_level` filtered by
    /// membership (as a set: rings are in id order).
    pub(crate) fn assert_rows_match_the_oracle(&self, oracle: &dyn RepairOracle, when: &str) {
        for s in Node::all(self.len()) {
            for j in 0..self.levels() {
                let member = &self.member[j];
                let nearest = oracle.nearest_where(s, &mut |v| member.get(v.index()));
                assert_eq!(
                    self.finger(oracle, s, j),
                    nearest,
                    "{when}: finger({s}, {j})"
                );
                let mut ball = Vec::new();
                oracle.ball(s, self.ring_factor * self.radii[j], &mut |v| ball.push(v));
                ball.retain(|v| member.get(v.index()));
                ball.sort_unstable();
                assert_eq!(self.ring(s, j), ball, "{when}: ring({s}, {j})");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectoryOverlay;
    use proptest::prelude::*;
    use ron_metric::{gen, LineMetric, Metric};

    /// The covering pass as it was before it skipped: every node is a
    /// candidate at every level.
    fn full_scan(authority: &RepairAuthority, _: &dyn RepairOracle, _: usize) -> Vec<Node> {
        Node::all(authority.len()).collect()
    }

    /// The pointer pass's ring test as it was before it read the rows: a
    /// distance probe from the home to every node touched at the level.
    fn distance_scan(
        authority: &RepairAuthority,
        oracle: &dyn RepairOracle,
        _: &Bits,
        home: Node,
        level: usize,
    ) -> bool {
        let reach = authority.ring_factor * authority.radii[level] + 1e-12;
        authority.touched[level]
            .iter()
            .any(|&t| oracle.dist(home, t) <= reach)
    }

    /// Drives one overlay through `steps` seeded random operations —
    /// single leaves and joins, hub leaves, a level emptied outright, a
    /// leave and rejoin within one epoch, repairs — and at every repair
    /// checks that the planner visiting only the covering candidates and
    /// reading the rows for touched nodes plans exactly what the full
    /// scan with per-object distance probes plans: the same per-node work
    /// (promotions and pointer operations in order included), placements,
    /// re-homings, touched nodes, and the same membership after; that
    /// the ball-side marks of `plan_slices` are exactly the alive
    /// `(v, j)` whose row holds a node touched at `j`; and that a
    /// detached plan replayed through `apply_plan` leaves the same rows.
    /// After every step each finger and ring read from the rows equals
    /// its oracle definition.
    fn assert_covering_matches_full_scan<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        seed: u64,
        steps: usize,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = space.len();
        let mut ov = DirectoryOverlay::build(space);
        for i in 0..4 {
            ov.publish(space, ObjectId(i as u64), Node::new((i * 7 + 1) % n));
        }
        let repair = |ov: &mut DirectoryOverlay, when: &str| {
            let mut reference = ov.control.clone();
            let expected = reference.plan(space, full_scan, distance_scan);
            let mut skipping = ov.control.clone();
            let planned = skipping.plan_repair(space);
            assert_eq!(planned.node_repairs, expected.node_repairs, "{when}");
            assert_eq!(planned.placements, expected.placements, "{when}");
            assert_eq!(planned.objects_touched, expected.objects_touched, "{when}");
            assert_eq!(planned.promotions, expected.promotions, "{when}");
            assert_eq!(planned.rehomed, expected.rehomed, "{when}");
            assert_eq!(planned.touched, expected.touched, "{when}");
            assert_eq!(skipping.member, reference.member, "{when}");
            let marks = skipping.ring_marks(space, &planned.touched);
            for (j, (marked, touched)) in marks.iter().zip(&planned.touched).enumerate() {
                for v in Node::all(n).filter(|v| skipping.alive[v.index()]) {
                    let holds = skipping.row(v, j).iter().any(|t| touched.contains(t));
                    let marked = marked.binary_search(&v).is_ok();
                    assert_eq!(marked, holds, "{when}: mark ({v}, {j})");
                }
            }
            let mut detached = ov.clone();
            let plan = detached.control_plane().plan_repair(space);
            detached.apply_plan(&plan);
            ov.repair(space);
            assert_eq!(detached.control.grown, ov.control.grown, "{when}: rows");
        };
        let leave = |ov: &mut DirectoryOverlay, v: Node| {
            if ov.is_alive(v) && ov.alive_count() > 2 {
                ov.leave(v);
            }
        };
        for step in 0..steps {
            let pick = rng.random_range(0..n);
            let v = Node::new(pick);
            let levels = ov.levels();
            match rng.random_range(0..6u8) {
                0 | 1 if ov.is_alive(v) => leave(&mut ov, v),
                0 | 1 => ov.join(space, v),
                2 => repair(&mut ov, &format!("step {step}")),
                3 => {
                    let top = (0..n).filter_map(|i| ov.top_level_of(Node::new(i))).max();
                    let hub = (0..n).map(Node::new).find(|&u| ov.top_level_of(u) == top);
                    leave(&mut ov, hub.expect("somebody is alive"));
                }
                4 => {
                    let j = levels / 2 + pick % (levels - levels / 2);
                    for u in (0..n).map(Node::new) {
                        if ov.is_net_member(j, u) {
                            leave(&mut ov, u);
                        }
                    }
                }
                _ if ov.is_alive(v) && ov.alive_count() > 2 => {
                    ov.leave(v);
                    ov.join(space, v);
                }
                _ => {}
            }
            ov.control
                .assert_rows_match_the_oracle(space, &format!("after step {step}"));
        }
        repair(&mut ov, "final");
        ov.control.assert_rows_match_the_oracle(space, "final");
    }

    fn on_both_backends<M: Metric + Clone>(metric: M, seed: u64, steps: usize) {
        assert_covering_matches_full_scan(&Space::new(metric.clone()), seed, steps);
        assert_covering_matches_full_scan(&Space::new_sparse(metric), seed, steps);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn covering_candidates_plan_what_the_full_scan_plans(
            seed in 0u64..1000,
            steps in 4usize..24,
        ) {
            on_both_backends(gen::uniform_cube(40, 2, seed), seed, steps);
            on_both_backends(gen::clustered(40, 2, 4, 0.02, seed), seed, steps);
            on_both_backends(gen::perturbed_grid(6, 2, 0.3, seed), seed, steps);
            on_both_backends(gen::exponential_line(14), seed, steps);
        }
    }

    /// At the size the serving benchmark churns (a 64 × 64 jittered
    /// grid, 1024 objects, waves of 64 nodes from the fine half of the
    /// ladder), every epoch of 16 leave waves and their rejoins plans
    /// exactly what the full-scan reference plans, and every published
    /// snapshot serves what a fresh capture serves: the successor of the
    /// last publication, of one four epochs old, and of a diverged
    /// clone's (whose table stamps must not vouch for this lineage).
    #[test]
    #[ignore = "release-only: ~64 full captures and reference plans at n = 4096"]
    fn epochs_at_benchmark_size_match_the_references() {
        use crate::engine::Snapshot;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{RngExt, SeedableRng};
        use ron_core::publish::EpochCell;
        let space = Space::new(gen::perturbed_grid(64, 2, 0.25, 1));
        let n = space.len();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ov = DirectoryOverlay::build(&space);
        let items: Vec<(ObjectId, Node)> = (0..1024)
            .map(|i| (ObjectId(i), Node::new(rng.random_range(0..n))))
            .collect();
        ov.publish_batch(&space, &items);
        let fine = ov.levels() / 2;
        let pool: Vec<Node> = space
            .nodes()
            .filter(|&v| ov.top_level_of(v) < Some(fine))
            .collect();
        let cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let old_cell = EpochCell::new(Snapshot::capture(&space, &ov));
        let epoch = |ov: &mut DirectoryOverlay, cell: &EpochCell<Snapshot>, when: &str| {
            let expected = ov.control.clone().plan(&space, full_scan, distance_scan);
            let planned = ov.control.clone().plan_repair(&space);
            assert_eq!(planned.node_repairs, expected.node_repairs, "{when}");
            assert_eq!(planned.placements, expected.placements, "{when}");
            assert_eq!(planned.objects_touched, expected.objects_touched, "{when}");
            assert_eq!(planned.rehomed, expected.rehomed, "{when}");
            ov.repair_published(&space, cell);
            cell.load()
                .assert_same_as(&Snapshot::capture(&space, ov), when);
        };
        for wave in 0..16 {
            let mut victims = pool.clone();
            victims.shuffle(&mut rng);
            victims.truncate(64);
            for &v in &victims {
                ov.leave(v);
            }
            epoch(&mut ov, &cell, &format!("wave {wave} left"));
            for &v in &victims {
                ov.join(&space, v);
            }
            epoch(&mut ov, &cell, &format!("wave {wave} rejoined"));
            if wave % 4 == 3 {
                ov.publish_snapshot(&space, &old_cell);
                let fresh = Snapshot::capture(&space, &ov);
                old_cell.load().assert_same_as(&fresh, "four epochs on");
            }
        }
        // A clone diverges: the original repairs one wave and publishes,
        // then the clone, having repaired another, publishes on top.
        let mut clone = ov.clone();
        let (a, b) = pool.split_at(pool.len() / 2);
        for &v in &a[..64] {
            ov.leave(v);
        }
        epoch(&mut ov, &cell, "original");
        for &v in &b[..8] {
            clone.leave(v);
        }
        clone.repair(&space);
        clone.publish_snapshot(&space, &cell);
        cell.load()
            .assert_same_as(&Snapshot::capture(&space, &clone), "diverged clone");
    }

    #[test]
    fn scan_oracle_matches_the_indexed_backend() {
        let space = Space::new(gen::uniform_cube(40, 2, 9));
        let dist = |u: Node, v: Node| space.dist(u, v);
        let scan = ScanOracle::new(space.len(), &dist);
        for u in space.nodes() {
            for r in [0.0, 0.1, 0.25, 2.0] {
                let mut a = Vec::new();
                let mut b = Vec::new();
                RepairOracle::ball(&space, u, r, &mut |v| a.push(v));
                scan.ball(u, r, &mut |v| b.push(v));
                assert_eq!(a, b, "ball({u}, {r})");
            }
            for modulus in [2usize, 3, 7] {
                let hit_idx =
                    RepairOracle::nearest_where(&space, u, &mut |v| v.index() % modulus == 0);
                let hit_scan = scan.nearest_where(u, &mut |v| v.index() % modulus == 0);
                assert_eq!(hit_idx, hit_scan, "nearest_where({u}, % {modulus})");
            }
        }
    }

    #[test]
    fn control_plane_plans_the_same_repair_the_overlay_applies() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        for i in 0..5u64 {
            ov.publish(&space, ObjectId(i), Node::new((i as usize * 7) % 32));
        }
        ov.leave(Node::new(7));
        ov.leave(Node::new(14));
        let mut authority = ov.control_plane();
        let plan = authority.plan_repair(&space);
        let report = ov.repair(&space);
        assert_eq!(plan.report_base().promotions, report.promotions);
        assert_eq!(plan.rehomed.len(), report.rehomed);
        assert_eq!(plan.report_base().objects_touched, report.objects_touched);
        let planned_writes: usize = plan
            .node_repairs
            .iter()
            .flat_map(|nr| nr.ops.iter())
            .filter(|op| op.target.is_some())
            .count();
        assert!(planned_writes >= report.pointer_writes);
        // The authority evolved past the epoch: planning again is a
        // no-op, like repairing twice.
        let idle = authority.plan_repair(&space);
        assert_eq!(idle.promotions, 0);
        assert_eq!(idle.objects_touched, 0);
        assert!(idle.node_repairs.is_empty());
    }
}
