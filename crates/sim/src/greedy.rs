//! Greedy small-world forwarding as a message protocol (Theorem 5.2).
//!
//! Each node holds only its sampled contact list
//! ([`ContactGraph::partition`]); a packet carries the target and a hop
//! budget, and each relay applies the strongly local greedy rule — the
//! contact closest to the target, provided it makes strict progress, ties
//! by node id. The decision is `ron_smallworld`'s own
//! [`greedy_choice`] and the budget check mirrors `route_with`, so for a
//! failure-free network the simulated message chain *is* the in-process
//! path (property-tested), and Theorem 5.2's `O(log n)` hop bound becomes
//! an `O(log n)` message-chain bound.

use ron_metric::Node;
use ron_smallworld::model::greedy_choice;
use ron_smallworld::ContactGraph;

use crate::engine::{Ctx, FailKind, SimNode};

/// One node of the greedy small-world protocol: its contact list.
#[derive(Clone, Debug)]
pub struct GreedyNode {
    me: Node,
    contacts: Vec<Node>,
}

impl GreedyNode {
    /// Builds the fleet from a sampled contact graph, one node per
    /// contact list.
    #[must_use]
    pub fn fleet(contacts: &ContactGraph) -> Vec<GreedyNode> {
        contacts
            .partition()
            .into_iter()
            .enumerate()
            .map(|(i, contacts)| GreedyNode {
                me: Node::new(i),
                contacts,
            })
            .collect()
    }

    /// The node this state belongs to.
    #[must_use]
    pub fn node(&self) -> Node {
        self.me
    }

    /// Contact pointers resident at this node.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.contacts.len()
    }
}

/// The greedy packet header: target plus remaining hop budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GreedyPacket {
    /// The routing target.
    pub target: Node,
    /// Hops the packet may still take (initialize from the model's
    /// `hop_budget()`).
    pub hops_left: u32,
}

impl SimNode for GreedyNode {
    type Msg = GreedyPacket;

    fn gram_type(_msg: &GreedyPacket) -> &'static str {
        "greedy"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GreedyPacket>, msg: GreedyPacket) {
        if self.me == msg.target {
            ctx.complete(self.me, 0);
            return;
        }
        // Mirror `route_with`: budget check precedes the rule.
        if msg.hops_left == 0 {
            ctx.fail(FailKind::BudgetExhausted);
            return;
        }
        match greedy_choice(self.me, &self.contacts, msg.target, |a, b| ctx.dist(a, b)) {
            Some(next) => ctx.send(
                next,
                GreedyPacket {
                    target: msg.target,
                    hops_left: msg.hops_left - 1,
                },
            ),
            None => ctx.fail(FailKind::Stalled),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Resolution, SimConfig, Simulator};
    use crate::latency::ConstantLatency;
    use ron_metric::{gen, Space};
    use ron_smallworld::GreedyModel;

    #[test]
    fn simulated_routes_match_in_process_queries() {
        let space = Space::new(gen::uniform_cube(48, 2, 5));
        let model = GreedyModel::sample(&space, 2.0, 9);
        let budget = model.hop_budget() as u32;
        let mut sim = Simulator::new(
            GreedyNode::fleet(model.contacts()),
            |u, v| space.dist(u, v),
            ConstantLatency(0.0),
            SimConfig::default(),
        );
        let pairs: Vec<(Node, Node)> = (0..48)
            .map(|i| (Node::new(i), Node::new((i * 7 + 3) % 48)))
            .collect();
        for &(src, tgt) in &pairs {
            sim.inject(
                0.0,
                src,
                GreedyPacket {
                    target: tgt,
                    hops_left: budget,
                },
            );
        }
        let report = sim.run();
        for (record, &(src, tgt)) in report.records.iter().zip(&pairs) {
            let expect = model.query(&space, src, tgt).expect("w.h.p. event");
            assert_eq!(
                record.resolution,
                Resolution::Delivered { at: tgt, detail: 0 },
                "{src} -> {tgt}"
            );
            assert_eq!(record.hops as usize, expect.hops(), "{src} -> {tgt}");
        }
        assert_eq!(report.completed, pairs.len());
        // Messages delivered == total hops.
        let total: u32 = report.records.iter().map(|r| r.hops).sum();
        assert_eq!(report.messages.delivered, u64::from(total));
    }

    #[test]
    fn fleet_exposes_local_state() {
        let space = Space::new(gen::uniform_cube(16, 2, 1));
        let model = GreedyModel::sample(&space, 1.0, 2);
        let fleet = GreedyNode::fleet(model.contacts());
        assert_eq!(fleet.len(), 16);
        assert_eq!(fleet[3].node(), Node::new(3));
        assert_eq!(
            fleet[3].entries(),
            model.contacts().contacts_of(Node::new(3)).len()
        );
    }
}
