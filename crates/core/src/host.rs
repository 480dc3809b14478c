//! Multi-group hosting: one physical network entity serving several
//! groups.
//!
//! Every message is stamped with a `GID` (§4.2) precisely so that one
//! AP/AG/BR can participate in many groups at once — each group has its
//! own ring-based hierarchy, membership lists and token, all sharing the
//! entity's address. [`GroupHost`] is that demultiplexer: a map from
//! [`GroupId`] to an independent [`NodeState`], with envelope routing and
//! per-group timer scoping.

use crate::config::ProtocolConfig;
use crate::error::{Result, RgbError};
use crate::events::{Input, Output};
use crate::ids::{GroupId, NodeId};
use crate::message::Envelope;
use crate::node::NodeState;
use crate::topology::HierarchyLayout;
use std::collections::BTreeMap;

/// An output tagged with the group it belongs to. Substrates must scope
/// timers by `(host, gid, kind)` and stamp outgoing messages with `gid`
/// (which [`GroupHost::envelope`] does).
#[derive(Debug, Clone, PartialEq)]
pub struct HostOutput {
    /// The group the output belongs to.
    pub gid: GroupId,
    /// The protocol output.
    pub output: Output,
}

/// One physical entity participating in several groups.
#[derive(Debug, Clone)]
pub struct GroupHost {
    /// The entity's address, shared by all groups.
    pub id: NodeId,
    groups: BTreeMap<GroupId, NodeState>,
}

impl GroupHost {
    /// An empty host.
    pub fn new(id: NodeId) -> Self {
        GroupHost { id, groups: BTreeMap::new() }
    }

    /// Join a group: install this entity's protocol state for it. The
    /// state's node id must be the host's address.
    pub fn add_group(&mut self, state: NodeState) -> Result<()> {
        if state.id != self.id {
            return Err(RgbError::UnknownNode(state.id));
        }
        if self.groups.contains_key(&state.gid) {
            return Err(RgbError::GroupMismatch { expected: state.gid, got: state.gid });
        }
        self.groups.insert(state.gid, state);
        Ok(())
    }

    /// Convenience: join a group from a hierarchy layout.
    pub fn add_group_from_layout(
        &mut self,
        layout: &HierarchyLayout,
        cfg: ProtocolConfig,
    ) -> Result<()> {
        self.add_group(NodeState::from_layout(layout, self.id, cfg)?)
    }

    /// Leave a group entirely.
    pub fn remove_group(&mut self, gid: GroupId) -> Option<NodeState> {
        self.groups.remove(&gid)
    }

    /// Number of groups hosted.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Borrow one group's state.
    pub fn group(&self, gid: GroupId) -> Option<&NodeState> {
        self.groups.get(&gid)
    }

    /// Groups hosted, in id order.
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.groups.keys().copied().collect()
    }

    /// Drive one group with an input.
    pub fn handle(&mut self, gid: GroupId, input: Input) -> Result<Vec<HostOutput>> {
        let state = self
            .groups
            .get_mut(&gid)
            .ok_or(RgbError::GroupMismatch { expected: GroupId(0), got: gid })?;
        Ok(state.handle(input).into_iter().map(|output| HostOutput { gid, output }).collect())
    }

    /// Route an incoming envelope to the right group. Envelopes for groups
    /// this host does not serve are dropped (returns an empty vec).
    pub fn handle_envelope(&mut self, from: NodeId, env: Envelope) -> Vec<HostOutput> {
        match self.groups.get_mut(&env.gid) {
            Some(state) => state
                .handle(Input::Msg { from, msg: env.msg })
                .into_iter()
                .map(|output| HostOutput { gid: env.gid, output })
                .collect(),
            None => Vec::new(),
        }
    }

    /// Boot every group.
    pub fn boot_all(&mut self) -> Vec<HostOutput> {
        let gids = self.group_ids();
        let mut outs = Vec::new();
        for gid in gids {
            if let Ok(mut o) = self.handle(gid, Input::Boot) {
                outs.append(&mut o);
            }
        }
        outs
    }

    /// Stamp a send output into a wire envelope for its group.
    pub fn envelope(gid: GroupId, output: &Output) -> Option<(NodeId, Envelope)> {
        match output {
            Output::Send { to, msg } => Some((*to, Envelope { gid, msg: msg.clone() })),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::AppEvent;
    use crate::ids::{Guid, Luid};
    use crate::message::MhEvent;
    use crate::topology::HierarchySpec;
    use std::collections::VecDeque;

    /// Minimal multi-group loopback: routes envelopes between hosts and
    /// ignores timers (on-demand policy needs none for these scenarios).
    struct HostNet {
        hosts: BTreeMap<NodeId, GroupHost>,
        queue: VecDeque<(NodeId, NodeId, Envelope)>,
        delivered: Vec<(NodeId, GroupId, AppEvent)>,
    }

    impl HostNet {
        fn new(layouts: &[&HierarchyLayout]) -> Self {
            let mut hosts: BTreeMap<NodeId, GroupHost> = BTreeMap::new();
            for layout in layouts {
                for &id in layout.nodes.keys() {
                    let host = hosts.entry(id).or_insert_with(|| GroupHost::new(id));
                    host.add_group_from_layout(layout, ProtocolConfig::default()).unwrap();
                }
            }
            HostNet { hosts, queue: VecDeque::new(), delivered: Vec::new() }
        }

        fn process(&mut self, from: NodeId, outs: Vec<HostOutput>) {
            for ho in outs {
                if let Some((to, env)) = GroupHost::envelope(ho.gid, &ho.output) {
                    self.queue.push_back((from, to, env));
                } else if let Output::Deliver(ev) = ho.output {
                    self.delivered.push((from, ho.gid, ev));
                }
            }
        }

        fn boot(&mut self) {
            let ids: Vec<NodeId> = self.hosts.keys().copied().collect();
            for id in ids {
                let outs = self.hosts.get_mut(&id).unwrap().boot_all();
                self.process(id, outs);
            }
        }

        fn run(&mut self) {
            let mut steps = 0;
            while let Some((from, to, env)) = self.queue.pop_front() {
                steps += 1;
                assert!(steps < 1_000_000, "storm");
                if let Some(host) = self.hosts.get_mut(&to) {
                    let outs = host.handle_envelope(from, env);
                    self.process(to, outs);
                }
            }
        }

        fn inject_mh(&mut self, gid: GroupId, ap: NodeId, event: MhEvent) {
            let outs = self.hosts.get_mut(&ap).unwrap().handle(gid, Input::Mh(event)).unwrap();
            self.process(ap, outs);
            self.run();
        }
    }

    #[test]
    fn two_groups_on_shared_entities_stay_isolated() {
        // The same 13 physical entities serve two independent groups.
        let a = HierarchySpec::new(2, 3).build(GroupId(1)).unwrap();
        let b = HierarchySpec::new(2, 3).build(GroupId(2)).unwrap();
        let mut net = HostNet::new(&[&a, &b]);
        net.boot();
        let ap = a.aps()[4];
        net.inject_mh(GroupId(1), ap, MhEvent::Join { guid: Guid(7), luid: Luid(1) });
        net.inject_mh(GroupId(2), ap, MhEvent::Join { guid: Guid(9), luid: Luid(1) });
        let root = a.root_ring().nodes[0];
        let host = &net.hosts[&root];
        let g1 = host.group(GroupId(1)).unwrap();
        let g2 = host.group(GroupId(2)).unwrap();
        assert!(g1.ring_members.contains_operational(Guid(7)));
        assert!(!g1.ring_members.contains_operational(Guid(9)));
        assert!(g2.ring_members.contains_operational(Guid(9)));
        assert!(!g2.ring_members.contains_operational(Guid(7)));
    }

    #[test]
    fn envelopes_for_unknown_groups_are_dropped() {
        let a = HierarchySpec::new(1, 3).build(GroupId(1)).unwrap();
        let mut host = GroupHost::new(NodeId(0));
        host.add_group_from_layout(&a, ProtocolConfig::default()).unwrap();
        let env = Envelope {
            gid: GroupId(99),
            msg: crate::message::Msg::TokenAck { ring: crate::ids::RingId(0), seq: 1 },
        };
        assert!(host.handle_envelope(NodeId(1), env).is_empty());
    }

    #[test]
    fn duplicate_group_and_wrong_node_are_rejected() {
        let a = HierarchySpec::new(1, 3).build(GroupId(1)).unwrap();
        let mut host = GroupHost::new(NodeId(0));
        host.add_group_from_layout(&a, ProtocolConfig::default()).unwrap();
        assert!(host.add_group_from_layout(&a, ProtocolConfig::default()).is_err());
        let other = NodeState::from_layout(&a, NodeId(1), ProtocolConfig::default()).unwrap();
        assert!(host.add_group(other).is_err());
        assert_eq!(host.group_count(), 1);
    }

    #[test]
    fn remove_group_stops_service() {
        let a = HierarchySpec::new(1, 3).build(GroupId(1)).unwrap();
        let mut host = GroupHost::new(NodeId(0));
        host.add_group_from_layout(&a, ProtocolConfig::default()).unwrap();
        assert!(host.remove_group(GroupId(1)).is_some());
        assert_eq!(host.group_count(), 0);
        assert!(host.handle(GroupId(1), Input::Boot).is_err());
    }
}
