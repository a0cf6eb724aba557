//! The compact routing schemes as overlay packet protocols (§4.1).
//!
//! Both (1+delta)-stretch schemes route on a metric by jumping along
//! virtual links; here each jump is a real message. A node holds only
//! its slice of the scheme — [`BasicNodeState`] (rings + translation
//! functions) or [`SimpleNodeState`] (neighbor labels + decoding
//! constants) — and the packet header carries exactly what the paper
//! says it carries: the target's routing label. Each forwarding decision
//! is the `next_overlay_hop` call the in-process `route_overlay` walks
//! make, under the same hop budget, so the simulated message chains
//! match them hop for hop on a failure-free network.

use ron_labels::CompactLabel;
use ron_metric::Node;
use ron_routing::{BasicLabel, BasicNodeState, BasicScheme, SimpleNodeState, SimpleScheme};

use crate::engine::{Ctx, FailKind, SimNode};

/// One node of the Theorem 2.1 overlay protocol.
#[derive(Clone, Debug)]
pub struct BasicOverlayNode {
    state: BasicNodeState,
}

impl BasicOverlayNode {
    /// Builds the fleet by partitioning a scheme.
    #[must_use]
    pub fn fleet(scheme: &BasicScheme) -> Vec<BasicOverlayNode> {
        scheme
            .partition()
            .into_iter()
            .map(|state| BasicOverlayNode { state })
            .collect()
    }

    /// The per-node slice.
    #[must_use]
    pub fn state(&self) -> &BasicNodeState {
        &self.state
    }
}

/// The Theorem 2.1 packet header: the target's label plus the hop budget.
#[derive(Clone, Debug)]
pub struct BasicPacket {
    /// The target's routing label (its zooming sequence in local
    /// indices).
    pub label: BasicLabel,
    /// Hops the packet may still take.
    pub hops_left: u32,
}

impl BasicPacket {
    /// A fresh packet towards the owner of `label`, with the node
    /// state's overlay hop budget.
    #[must_use]
    pub fn new(label: BasicLabel, budget: usize) -> Self {
        BasicPacket {
            label,
            hops_left: budget as u32,
        }
    }
}

impl SimNode for BasicOverlayNode {
    type Msg = BasicPacket;

    fn gram_type(_msg: &BasicPacket) -> &'static str {
        "basic"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, BasicPacket>, msg: BasicPacket) {
        if self.state.node() == msg.label.node() {
            ctx.complete(self.state.node(), 0);
            return;
        }
        if msg.hops_left == 0 {
            ctx.fail(FailKind::BudgetExhausted);
            return;
        }
        match self.state.next_overlay_hop(&msg.label) {
            Some((next, _)) => ctx.send(
                next,
                BasicPacket {
                    label: msg.label,
                    hops_left: msg.hops_left - 1,
                },
            ),
            None => ctx.fail(FailKind::Stalled),
        }
    }
}

/// One node of the Theorem 4.1 overlay protocol.
#[derive(Clone, Debug)]
pub struct SimpleOverlayNode {
    state: SimpleNodeState,
}

impl SimpleOverlayNode {
    /// Builds the fleet by partitioning a scheme.
    #[must_use]
    pub fn fleet(scheme: &SimpleScheme) -> Vec<SimpleOverlayNode> {
        scheme
            .partition()
            .into_iter()
            .map(|state| SimpleOverlayNode { state })
            .collect()
    }

    /// The per-node slice.
    #[must_use]
    pub fn state(&self) -> &SimpleNodeState {
        &self.state
    }
}

/// The Theorem 4.1 packet header: target id, target label, hop budget.
#[derive(Clone, Debug)]
pub struct SimplePacket {
    /// The routing target.
    pub target: Node,
    /// The target's distance label.
    pub label: CompactLabel,
    /// Hops the packet may still take.
    pub hops_left: u32,
}

impl SimNode for SimpleOverlayNode {
    type Msg = SimplePacket;

    fn gram_type(_msg: &SimplePacket) -> &'static str {
        "simple"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SimplePacket>, msg: SimplePacket) {
        if self.state.node() == msg.target {
            ctx.complete(self.state.node(), 0);
            return;
        }
        if msg.hops_left == 0 {
            ctx.fail(FailKind::BudgetExhausted);
            return;
        }
        match self.state.next_overlay_hop(&msg.label) {
            Some(next) => ctx.send(
                next,
                SimplePacket {
                    target: msg.target,
                    label: msg.label,
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
    use ron_metric::{LineMetric, Space};

    #[test]
    fn basic_overlay_messages_match_route_overlay() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let scheme = BasicScheme::build_overlay(&space, 0.25);
        let budget = BasicOverlayNode::fleet(&scheme)[0].state().hop_budget();
        let mut sim = Simulator::new(
            BasicOverlayNode::fleet(&scheme),
            |u, v| space.dist(u, v),
            ConstantLatency(0.0),
            SimConfig::default(),
        );
        let pairs: Vec<(Node, Node)> = (0..32)
            .map(|i| (Node::new(i), Node::new((i * 11 + 5) % 32)))
            .filter(|(u, v)| u != v)
            .collect();
        for &(src, tgt) in &pairs {
            sim.inject(
                0.0,
                src,
                BasicPacket::new(scheme.label(tgt).clone(), budget),
            );
        }
        let report = sim.run();
        for (record, &(src, tgt)) in report.records.iter().zip(&pairs) {
            let expect = scheme.route_overlay(src, tgt).unwrap();
            assert_eq!(
                record.resolution,
                Resolution::Delivered { at: tgt, detail: 0 }
            );
            assert_eq!(record.hops as usize, expect.hops(), "{src} -> {tgt}");
        }
    }

    #[test]
    fn simple_overlay_messages_match_route_overlay() {
        let space = Space::new(LineMetric::uniform(24).unwrap());
        let scheme = SimpleScheme::build_overlay(&space, 0.25);
        let fleet = SimpleOverlayNode::fleet(&scheme);
        let budget = fleet[0].state().hop_budget() as u32;
        let mut sim = Simulator::new(
            fleet,
            |u, v| space.dist(u, v),
            ConstantLatency(0.0),
            SimConfig::default(),
        );
        let pairs: Vec<(Node, Node)> = (0..24)
            .map(|i| (Node::new(i), Node::new((i * 5 + 7) % 24)))
            .filter(|(u, v)| u != v)
            .collect();
        for &(src, tgt) in &pairs {
            sim.inject(
                0.0,
                src,
                SimplePacket {
                    target: tgt,
                    label: scheme.target_label(tgt),
                    hops_left: budget,
                },
            );
        }
        let report = sim.run();
        for (record, &(src, tgt)) in report.records.iter().zip(&pairs) {
            let expect = scheme.route_overlay(&space, src, tgt).unwrap();
            assert_eq!(
                record.resolution,
                Resolution::Delivered { at: tgt, detail: 0 }
            );
            assert_eq!(record.hops as usize, expect.hops(), "{src} -> {tgt}");
        }
    }
}
