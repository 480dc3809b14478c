//! A deterministic in-memory loopback substrate for unit and integration
//! tests.
//!
//! [`Loopback`] owns one [`NodeState`] per network entity, a FIFO message
//! queue with zero-latency delivery, and a logical-time timer wheel. It is
//! deliberately minimal — the full discrete-event simulator with latency,
//! loss, faults and metrics lives in the `rgb-sim` crate — but it is enough
//! to drive every protocol path deterministically, including crashes
//! (messages to a crashed node vanish, which is exactly what the token
//! retransmission machinery must tolerate).

use crate::config::ProtocolConfig;
use crate::events::{AppEvent, Input, Output, TimerKind};
use crate::ids::NodeId;
use crate::message::Msg;
use crate::node::NodeState;
use crate::topology::HierarchyLayout;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Deterministic loopback substrate.
#[derive(Debug)]
pub struct Loopback {
    /// The protocol states, by node id.
    pub nodes: BTreeMap<NodeId, NodeState>,
    /// Crashed nodes: inputs to them are dropped.
    pub crashed: BTreeSet<NodeId>,
    /// Application events delivered at each node, in order.
    pub delivered: BTreeMap<NodeId, Vec<AppEvent>>,
    /// Messages sent, by label (see [`Msg::label`]).
    pub sent_by_label: BTreeMap<&'static str, u64>,
    /// Total messages sent.
    pub sent_total: u64,
    /// Current logical time.
    pub now: u64,
    queue: VecDeque<(NodeId, NodeId, Msg)>,
    timers: BTreeMap<(NodeId, TimerKind), u64>,
}

impl Loopback {
    /// Build a loopback over every node of `layout`, all using `cfg`.
    pub fn from_layout(layout: &HierarchyLayout, cfg: &ProtocolConfig) -> Self {
        let mut nodes = BTreeMap::new();
        let ring_counts = layout.level_ring_counts();
        for &id in layout.nodes.keys() {
            let state = NodeState::from_layout_with_counts(layout, id, cfg.clone(), &ring_counts)
                .expect("layout node constructs");
            nodes.insert(id, state);
        }
        Loopback {
            nodes,
            crashed: BTreeSet::new(),
            delivered: BTreeMap::new(),
            sent_by_label: BTreeMap::new(),
            sent_total: 0,
            now: 0,
            queue: VecDeque::new(),
            timers: BTreeMap::new(),
        }
    }

    /// Boot every node.
    pub fn boot_all(&mut self) {
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in ids {
            self.inject(id, Input::Boot);
        }
    }

    /// Deliver an input to a node and process its outputs.
    pub fn inject(&mut self, node: NodeId, input: Input) {
        if self.crashed.contains(&node) {
            return;
        }
        let Some(state) = self.nodes.get_mut(&node) else { return };
        let outs = state.handle(input);
        self.process_outputs(node, outs);
    }

    fn process_outputs(&mut self, node: NodeId, outs: Vec<Output>) {
        for out in outs {
            match out {
                Output::Send { to, msg } => {
                    *self.sent_by_label.entry(msg.label()).or_insert(0) += 1;
                    self.sent_total += 1;
                    self.queue.push_back((node, to, msg));
                }
                Output::SetTimer { kind, after } => {
                    self.timers.insert((node, kind), self.now + after);
                }
                Output::CancelTimer { kind } => {
                    self.timers.remove(&(node, kind));
                }
                Output::Deliver(ev) => {
                    self.delivered.entry(node).or_default().push(ev);
                }
            }
        }
    }

    /// Process one pending message, if any. Returns whether one existed.
    pub fn step_message(&mut self) -> bool {
        let Some((from, to, msg)) = self.queue.pop_front() else { return false };
        if self.crashed.contains(&to) || !self.nodes.contains_key(&to) {
            return true; // dropped on the floor
        }
        self.inject(to, Input::Msg { from, msg });
        true
    }

    /// Fire the earliest pending timer (advancing logical time to it).
    /// Returns whether a timer existed.
    pub fn fire_next_timer(&mut self) -> bool {
        let next = self
            .timers
            .iter()
            .filter(|((n, _), _)| !self.crashed.contains(n))
            .min_by_key(|(&(n, k), &at)| (at, n, k))
            .map(|(&key, &at)| (key, at));
        let Some(((node, kind), at)) = next else { return false };
        self.timers.remove(&(node, kind));
        self.now = self.now.max(at);
        self.inject(node, Input::Timer(kind));
        true
    }

    /// Run messages and timers until the system is fully quiet or `budget`
    /// steps elapse. Returns true if quiescence was reached.
    pub fn run_until_quiet(&mut self, budget: usize) -> bool {
        for _ in 0..budget {
            if self.step_message() {
                continue;
            }
            if !self.fire_next_timer() {
                return true;
            }
        }
        self.queue.is_empty() && self.timers.is_empty()
    }

    /// Run until logical time reaches `deadline`, then stop (pending work
    /// beyond the deadline is left in place). Use for continuous-policy
    /// scenarios which never quiesce.
    pub fn run_until(&mut self, deadline: u64) {
        let mut steps = 0usize;
        loop {
            if self.step_message() {
                steps += 1;
                assert!(steps < 50_000_000, "message storm");
                continue;
            }
            let next = self
                .timers
                .iter()
                .filter(|((n, _), _)| !self.crashed.contains(n))
                .map(|(_, &at)| at)
                .min();
            match next {
                Some(at) if at <= deadline => {
                    self.fire_next_timer();
                }
                _ => {
                    self.now = deadline;
                    return;
                }
            }
        }
    }

    /// Crash a node: it stops processing inputs and all its timers die.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
        self.timers.retain(|(n, _), _| *n != node);
    }

    /// Borrow a node's state.
    pub fn node(&self, id: NodeId) -> &NodeState {
        &self.nodes[&id]
    }

    /// Events delivered at `id` so far.
    pub fn events_at(&self, id: NodeId) -> &[AppEvent] {
        self.delivered.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Count of messages sent with the given label.
    pub fn sent(&self, label: &str) -> u64 {
        self.sent_by_label.get(label).copied().unwrap_or(0)
    }
}
