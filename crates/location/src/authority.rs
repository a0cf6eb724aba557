//! The directory's control plane: membership, the publish rings, registry
//! and placement state, the membership rules (`leave`, `join`) and the
//! one reader of a ladder level (fingers, rings, zoom chains), and the
//! repair *planner*.
//!
//! The state and its rules are written once, in [`RepairAuthority`].
//! A [`DirectoryOverlay`] owns one next to its pointer tables (the data
//! plane) and every overlay mutation goes through it;
//! [`DirectoryOverlay::repair`] plans on it in place. The
//! message-passing repair protocol of `ron-sim` carries a copy
//! ([`DirectoryOverlay::control_plane`]) at its coordinator node and
//! fans the same [`RepairPlan`] — per-node promotions, pointer
//! writes/deletes, adoptions and finger refreshes — out as messages, so
//! "simulated repair equals in-process repair" is a statement about one
//! planner.
//!
//! [`DirectoryOverlay`]: crate::DirectoryOverlay
//! [`DirectoryOverlay::repair`]: crate::DirectoryOverlay::repair
//! [`DirectoryOverlay::control_plane`]: crate::DirectoryOverlay::control_plane
//!
//! The planner never touches a [`Space`] directly: it asks a
//! [`RepairOracle`] for distances, nearest-member and ball queries.
//! [`Space`] implements the oracle through its
//! [`BallOracle`] backend (the in-process path), and [`ScanOracle`]
//! implements it over a bare distance function (the simulator's
//! coordinator, whose only geometric capability is the engine's
//! distance oracle). Both visit candidates in the same ascending
//! `(distance, node id)` order, so the two paths produce byte-identical
//! plans — property-tested in `ron-sim` on all four instance families.

use std::collections::HashMap;
use std::sync::Arc;

use ron_core::RingFamily;
use ron_metric::{BallOracle, Metric, Node, Space};
use ron_nets::NestedNets;

use crate::churn::RepairReport;
use crate::directory::{IdMap, ObjectId, Placement};

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

/// Everything one node must do to execute a repair plan: promotions
/// into net levels, objects to adopt (re-homings), and pointer-table
/// operations. The simulator ships one of these per node as a message;
/// the in-process path applies them directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRepair {
    /// The node this slice of the plan belongs to.
    pub node: Node,
    /// Net levels the node is promoted into (covering restoration).
    pub promote: Vec<usize>,
    /// Objects newly homed at this node.
    pub adopt: Vec<ObjectId>,
    /// Pointer-table writes and deletes.
    pub ops: Vec<PointerOp>,
}

impl NodeRepair {
    fn new(node: Node) -> Self {
        NodeRepair {
            node,
            promote: Vec::new(),
            adopt: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Whether the plan asks nothing of this node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.promote.is_empty() && self.adopt.is_empty() && self.ops.is_empty()
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
    /// Levels whose membership changed since the last repair (leaves,
    /// joins or promotions) — the levels whose fingers need refreshing.
    pub touched_levels: Vec<bool>,
    /// Per-node work, in first-touch order (deterministic).
    pub node_repairs: Vec<NodeRepair>,
    /// Updated placements, applied to the overlay's bookkeeping.
    pub(crate) placements: Vec<(ObjectId, Placement)>,
    /// Row insertions the promotions made: `(level, new member, the
    /// nodes within c·r_level of it)`, replayed by a control plane that
    /// did not plan the epoch.
    pub(crate) row_insertions: Vec<(usize, Node, Vec<Node>)>,
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
    /// Dynamic net membership: `member[j][v]` iff `v` is an *alive* member
    /// of the level-`j` net. Starts as the static ladder.
    pub(crate) member: Vec<Vec<bool>>,
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
    pub(crate) placements: HashMap<ObjectId, Placement>,
}

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
                    (0..n).map(|v| net.contains(Node::new(v))).collect()
                })
                .collect(),
            rings: Arc::new(rings),
            grown: IdMap::default(),
            touched: vec![Vec::new(); levels],
            alive: vec![true; n],
            alive_count: n,
            objects: Vec::new(),
            homes: IdMap::default(),
            placements: HashMap::new(),
        }
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

    /// The net levels `v` is currently a member of, ascending.
    #[must_use]
    pub fn member_levels_of(&self, v: Node) -> Vec<usize> {
        (0..self.levels())
            .filter(|&j| self.member[j][v.index()])
            .collect()
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
            if self.member[j][v.index()] {
                self.member[j][v.index()] = false;
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
        if self.member[level][v.index()] {
            return None;
        }
        self.member[level][v.index()] = true;
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
        ring.extend(row.iter().filter(|v| member[v.index()]));
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
        let ring = self.row(s, level).iter().filter(|v| member[v.index()]);
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
        self.nearest_in_ring(oracle, s, level).or_else(|| {
            let member = &self.member[level];
            oracle.nearest_where(s, &mut |v| member[v.index()])
        })
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
    /// clears the touched sets and updates the control plane's registry
    /// and placements. The caller applies the plan's pointer operations
    /// (directly, or by fanning them out as messages).
    ///
    /// Both passes cost what changed since the last repair.
    ///
    /// *Covering.* The nets are `r_j`-covering after every repair (and
    /// at build), and between repairs only a leave removes a member. So
    /// at level `j` a node can be uncovered only if a level-`j` member
    /// within `r_j` of it left, or if the node itself joined since. The
    /// pass visits just those candidates, in ascending id order. Promotions
    /// only add members, so every other node is covered and stays covered:
    /// the plan is the one a scan of all nodes would make.
    ///
    /// *Pointers.* A chain point at level `j` can only drift if membership
    /// changed strictly nearer to the home than the old point, and after
    /// the covering pass any such change shows up as a touched node
    /// inside the publish radius — so an object with no touched node
    /// inside any publish radius and an unmoved home is skipped at the
    /// cost of `sum_j |touched[j]|` distance probes.
    pub fn plan_repair(&mut self, oracle: &dyn RepairOracle) -> RepairPlan {
        self.plan(oracle, Self::covering_candidates)
    }

    /// The nodes that can be uncovered at `level` (see
    /// [`plan_repair`](Self::plan_repair)): the alive non-members within
    /// `r_level` of a level member that left since the last repair, and
    /// the joiners since then; ascending, each once.
    fn covering_candidates(&self, oracle: &dyn RepairOracle, level: usize) -> Vec<Node> {
        let member = &self.member[level];
        let open = |u: Node| self.alive[u.index()] && !member[u.index()];
        let reach = self.radii[level] * (1.0 + 1e-9);
        let mut out = Vec::new();
        let departed = self.touched[level].iter().filter(|m| !member[m.index()]);
        for &m in departed {
            oracle.ball(m, reach, &mut |u| {
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
    /// `candidates(self, oracle, level)` at each level.
    fn plan(
        &mut self,
        oracle: &dyn RepairOracle,
        candidates: fn(&Self, &dyn RepairOracle, usize) -> Vec<Node>,
    ) -> RepairPlan {
        let _stage = ron_obs::stage("repair");
        let levels = self.levels();
        let mut plan = RepairPlan {
            touched_levels: vec![false; levels],
            ..RepairPlan::default()
        };
        let mut index: HashMap<Node, usize> = HashMap::new();
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
                if !self.alive[u.index()] || self.member[j][u.index()] {
                    continue;
                }
                let covered = self
                    .nearest_in_ring(oracle, u, j)
                    .is_some_and(|(d, _)| d <= self.radii[j] * (1.0 + 1e-12));
                if covered {
                    continue;
                }
                for k in 1..=j {
                    if !self.member[k][u.index()] {
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

        // Homes pass: re-home objects whose home died to the nearest
        // alive node.
        let t_homes = ron_obs::start();
        for idx in 0..self.objects.len() {
            let obj = self.objects[idx];
            let home = self.homes[&obj];
            if self.alive[home.index()] {
                continue;
            }
            let (_, new_home) = oracle
                .nearest_where(home, &mut |v| self.alive[v.index()])
                .expect("at least one node stays alive");
            self.homes.insert(obj, new_home);
            plan.rehomed.push((obj, new_home));
            let b = bucket(&mut plan, new_home);
            plan.node_repairs[b].adopt.push(obj);
        }

        ron_obs::finish("repair.plan.homes", t_homes);

        // Pointer pass: reconcile each object whose rings or chain could
        // have changed (the skip test argued in the method docs).
        let t_pointers = ron_obs::start();
        for idx in 0..self.objects.len() {
            let obj = self.objects[idx];
            let home = self.homes[&obj];
            let old = self.placements.get(&obj).cloned().unwrap_or_default();
            let moved = old.chain.first() != Some(&home);

            let mut ring_changed = vec![false; levels];
            for (j, slot) in ring_changed.iter_mut().enumerate() {
                *slot = self.touched[j]
                    .iter()
                    .any(|&t| oracle.dist(home, t) <= self.ring_factor * self.radii[j] + 1e-12);
            }
            if !moved && ring_changed.iter().all(|&r| !r) {
                continue;
            }
            plan.objects_touched += 1;

            let new_chain = self.chain(oracle, home);
            let mut refresh = vec![false; levels];
            for (j, slot) in refresh.iter_mut().enumerate() {
                let chain_drift = j > 0 && old.chain.get(j - 1) != Some(&new_chain[j - 1]);
                *slot = moved || ring_changed[j] || chain_drift;
            }

            let mut placement = Placement {
                chain: new_chain.clone(),
                entries: Vec::new(),
            };
            for &(level, w) in &old.entries {
                if !refresh[level] {
                    placement.entries.push((level, w));
                }
            }
            for (level, _) in refresh.iter().enumerate().filter(|&(_, &r)| r) {
                let ring = self.ring(home, level);
                let target = if level == 0 {
                    home
                } else {
                    new_chain[level - 1]
                };
                // Delete stale entries from alive nodes that left the
                // ring (a dead holder's table died with it).
                for &(l, w) in &old.entries {
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
                    placement.entries.push((level, w));
                }
            }
            self.placements.insert(obj, placement.clone());
            plan.placements.push((obj, placement));
        }

        ron_obs::finish("repair.plan.pointers", t_pointers);

        for (j, touched) in self.touched.iter_mut().enumerate() {
            plan.touched_levels[j] = !touched.is_empty();
            touched.clear();
        }
        plan
    }

    /// Replays a plan's control-plane decisions — promotions, row
    /// insertions, re-homings, placements, consumed touched sets — onto
    /// a control plane that did not plan it (the planner's own copy
    /// already holds them). Asks no oracle.
    pub(crate) fn absorb(&mut self, plan: &RepairPlan) {
        for nr in &plan.node_repairs {
            for &level in &nr.promote {
                self.member[level][nr.node.index()] = true;
            }
        }
        for (level, v, reach) in &plan.row_insertions {
            self.grow_rows(*level, *v, reach);
        }
        for &(obj, new_home) in &plan.rehomed {
            self.homes.insert(obj, new_home);
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

    /// `v`'s fingers, `(level, finger)`, at the levels `at` marks: what a
    /// node holding its own finger table is sent after a repair (a
    /// survivor at a plan's `touched_levels`, a joiner at every level).
    /// In process, fingers are read on demand instead.
    #[must_use]
    pub fn fingers(
        &self,
        oracle: &dyn RepairOracle,
        v: Node,
        at: &[bool],
    ) -> Vec<(usize, Option<Node>)> {
        (0..self.levels())
            .filter(|&j| at[j])
            .map(|j| (j, self.finger(oracle, v, j).map(|(_, f)| f)))
            .collect()
    }
}

/// The reads' definitions, asked of the oracle, for the tests.
#[cfg(test)]
impl RepairAuthority {
    /// Panics unless every `(node, level)` finger is the oracle's nearest
    /// member and every ring the oracle's ball at `c·r_level` filtered by
    /// membership (as a set: rings are in id order).
    pub(crate) fn assert_rows_match_the_oracle(&self, oracle: &dyn RepairOracle, when: &str) {
        for s in Node::all(self.len()) {
            for j in 0..self.levels() {
                let member = &self.member[j];
                let nearest = oracle.nearest_where(s, &mut |v| member[v.index()]);
                assert_eq!(
                    self.finger(oracle, s, j),
                    nearest,
                    "{when}: finger({s}, {j})"
                );
                let mut ball = Vec::new();
                oracle.ball(s, self.ring_factor * self.radii[j], &mut |v| ball.push(v));
                ball.retain(|v| member[v.index()]);
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

    /// Drives one overlay through `steps` seeded random operations —
    /// single leaves and joins, hub leaves, a level emptied outright, a
    /// leave and rejoin within one epoch, repairs — and at every repair
    /// checks that the planner visiting only the covering candidates
    /// plans exactly what the full scan plans: the same per-node work
    /// (promotions in order included), re-homings and touched levels,
    /// and the same membership after; and that a detached plan replayed
    /// through `apply_plan` leaves the same rows. After every step each
    /// finger and ring read from the rows equals its oracle definition.
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
            let expected = reference.plan(space, full_scan);
            let mut skipping = ov.control.clone();
            let planned = skipping.plan_repair(space);
            assert_eq!(planned.node_repairs, expected.node_repairs, "{when}");
            assert_eq!(planned.promotions, expected.promotions, "{when}");
            assert_eq!(planned.rehomed, expected.rehomed, "{when}");
            assert_eq!(planned.touched_levels, expected.touched_levels, "{when}");
            assert_eq!(skipping.member, reference.member, "{when}");
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
