//! Transport abstraction for the live reactor runtime.
//!
//! Messages between reactor workers travel as length-delimited binary
//! frames produced by `rgb_core::wire`, so the wire format is exercised
//! end-to-end exactly as a socket deployment would — the in-process channel
//! stands in for TCP only at the byte layer.
//!
//! Every worker mailbox is **bounded**: a sender that finds it full gets
//! [`SendOutcome::Backpressure`] and the frame is dropped with a counter
//! bump — never queued without bound. That is the UDP-buffer-full analogy
//! the protocol is already built to survive (token retransmission, §5.2),
//! and it is what keeps one slow worker from growing another worker's
//! memory: the data plane never parks a reactor thread on a peer's mailbox,
//! so no worker-to-worker send cycle can deadlock.
//!
//! A worker that hosts a frame's destination itself keeps the frame on its
//! own run queue instead of sending it to its own mailbox. Such a frame
//! still passes this module — the partition test, the same capacity bound,
//! the same drop counters (`Router::admit_local`) — and the wire codec at
//! both ends; only the mailbox's lock and wake-up are skipped.

use bytes::Bytes;
use crossbeam::channel::{Sender, TrySendError};
use parking_lot::RwLock;
use rgb_core::prelude::{Envelope, GroupId, MhEvent, Msg, NodeId, QueryScope};
use rgb_core::wire;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Input messages a reactor worker can receive. Node-addressed variants
/// carry the destination explicitly, because one mailbox multiplexes every
/// node the worker hosts.
#[derive(Debug)]
pub enum ToWorker {
    /// An encoded envelope from another node.
    Net {
        /// Sender node.
        from: NodeId,
        /// Destination node (hosted by the receiving worker).
        to: NodeId,
        /// Encoded [`Envelope`].
        frame: Bytes,
    },
    /// A mobile-host event from the operator API.
    Mh {
        /// The access proxy it lands at.
        ap: NodeId,
        /// The event.
        event: MhEvent,
    },
    /// Start a membership query at a node.
    Query {
        /// The node the application asks at.
        node: NodeId,
        /// What is asked.
        scope: QueryScope,
    },
    /// Request a state snapshot of one node (reply through the provided
    /// channel; a crashed or unknown node simply never replies).
    Snapshot {
        /// The node to snapshot.
        node: NodeId,
        /// Where the snapshot goes.
        reply: Sender<crate::reactor::NodeSnapshot>,
    },
    /// Crash one node: the worker drops its state and timers.
    Crash {
        /// The node to crash.
        node: NodeId,
    },
    /// Stop the worker (after draining everything queued before this).
    Stop,
}

/// What became of one [`Router::send_frame`] call. The reactor substrate
/// uses this to attribute failed sends to the *sending* node's
/// [`crate::reactor::NodeSnapshot::dropped_frames`] counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The frame entered the destination worker's mailbox (or, from
    /// `Router::admit_local`, may enter the sending worker's run queue).
    Delivered,
    /// An active link partition swallowed the frame.
    PartitionDropped,
    /// The destination is unknown or stopped (a crashed host).
    Unroutable,
    /// The destination's bounded mailbox (or run queue) was full; the frame was
    /// dropped and counted, exactly like a UDP socket buffer overflowing.
    Backpressure,
}

/// Shared routing table: node id → the mailbox of the worker hosting it.
#[derive(Clone, Default)]
pub struct Router {
    inner: Arc<RwLock<HashMap<NodeId, Sender<ToWorker>>>>,
    /// Currently severed NE pairs (normalised `(min, max)`) with an
    /// active-window refcount: frames between them are dropped, in both
    /// directions — the live-world counterpart of the simulator's
    /// [`rgb_core::faults::LinkPartition`] windows. Scenario replay drives
    /// this from the timeline; overlapping windows on one pair heal only
    /// when the last of them ends.
    severed: Arc<RwLock<HashMap<(NodeId, NodeId), u32>>>,
    /// Number of pairs in `severed`, kept beside it so the per-frame
    /// partition test of a cluster with no open window (the usual case) is
    /// one load and no lock. Written under `severed`'s write lock.
    severed_pairs: Arc<AtomicUsize>,
    /// Frames delivered into a mailbox by [`Router::send_frame`]. Reactor
    /// workers count their own sends and flush them once per loop turn
    /// ([`crate::cluster::Cluster::worker_frame_counts`]).
    sent: Arc<AtomicU64>,
    /// Frames dropped because the destination was unknown or stopped.
    drops: Arc<AtomicU64>,
    /// Frames swallowed by an active link partition.
    partition_drops: Arc<AtomicU64>,
    /// Frames dropped because the destination worker's mailbox was full.
    backpressure_drops: Arc<AtomicU64>,
}

impl Router {
    /// Fresh empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the mailbox hosting `node`.
    pub fn register(&self, node: NodeId, tx: Sender<ToWorker>) {
        self.inner.write().insert(node, tx);
    }

    /// Remove a node (its future messages are dropped — a crash).
    pub fn deregister(&self, node: NodeId) {
        self.inner.write().remove(&node);
    }

    /// Encode and deliver `msg` from `from` to `to`. Messages to unknown
    /// nodes are dropped (and counted), exactly like packets to a dead
    /// host.
    pub fn send(&self, gid: GroupId, from: NodeId, to: NodeId, msg: Msg) -> SendOutcome {
        self.send_frame(from, to, wire::encode(&Envelope { gid, msg }))
    }

    /// Deliver an already-encoded [`Envelope`] frame from `from` to `to` —
    /// the transport half of the substrate layer's
    /// [`rgb_core::substrate::Substrate::send_frame`]. Frames to unknown or
    /// stopped nodes are dropped and counted; frames to a full mailbox are
    /// dropped with the backpressure counter (never queued unboundedly).
    pub fn send_frame(&self, from: NodeId, to: NodeId, frame: Bytes) -> SendOutcome {
        let outcome = self.route(from, to, frame);
        if outcome == SendOutcome::Delivered {
            self.sent.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// [`Router::send_frame`] for a caller that counts its own `Delivered`
    /// frames; every drop is counted here.
    pub(crate) fn route(&self, from: NodeId, to: NodeId, frame: Bytes) -> SendOutcome {
        if self.partition_drops_frame(from, to) {
            return SendOutcome::PartitionDropped;
        }
        let guard = self.inner.read();
        let Some(tx) = guard.get(&to) else {
            self.note_drop();
            return SendOutcome::Unroutable;
        };
        match tx.try_send(ToWorker::Net { from, to, frame }) {
            Ok(()) => SendOutcome::Delivered,
            Err(TrySendError::Full(_)) => {
                self.backpressure_drops.fetch_add(1, Ordering::Relaxed);
                SendOutcome::Backpressure
            }
            Err(TrySendError::Disconnected(_)) => {
                self.note_drop();
                SendOutcome::Unroutable
            }
        }
    }

    /// Admission of a frame whose destination the *sending worker* hosts,
    /// so it can skip the mailbox and sit on that worker's own run queue:
    /// the same partition test, the same bound (`queued` frames against
    /// `capacity`) and the same drop counters as [`Router::route`].
    /// `Delivered` means the caller must queue the frame and count it.
    pub(crate) fn admit_local(
        &self,
        from: NodeId,
        to: NodeId,
        queued: usize,
        capacity: usize,
    ) -> SendOutcome {
        if self.partition_drops_frame(from, to) {
            return SendOutcome::PartitionDropped;
        }
        if queued >= capacity {
            self.backpressure_drops.fetch_add(1, Ordering::Relaxed);
            return SendOutcome::Backpressure;
        }
        SendOutcome::Delivered
    }

    /// The partition test every frame passes; a severed pair's frame is
    /// counted here.
    fn partition_drops_frame(&self, from: NodeId, to: NodeId) -> bool {
        let severed = self.is_partitioned(from, to);
        if severed {
            self.partition_drops.fetch_add(1, Ordering::Relaxed);
        }
        severed
    }

    fn note_drop(&self) {
        // The first drop of a router's lifetime gets a visible warning;
        // after that the counter (surfaced in `ClusterStats`) is the
        // record, so a crashing cluster does not spam the log.
        if self.drops.fetch_add(1, Ordering::Relaxed) == 0 {
            eprintln!(
                "rgb-net: warning: router dropped a frame (destination unknown or stopped); \
                 further drops are only counted"
            );
        }
    }

    /// Frames [`Router::send_frame`] delivered into a mailbox so far.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Frames dropped so far because the destination was unknown/stopped.
    pub fn dropped(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Frames dropped so far because a destination mailbox was full.
    pub fn backpressure_dropped(&self) -> u64 {
        self.backpressure_drops.load(Ordering::Relaxed)
    }

    /// Sever or heal the (unordered) link between `a` and `b`. Calls
    /// refcount: each sever opens one window, each heal closes one, and
    /// the link passes frames again only when no window remains open.
    pub fn set_partition(&self, a: NodeId, b: NodeId, severed: bool) {
        let pair = if a <= b { (a, b) } else { (b, a) };
        let mut guard = self.severed.write();
        if severed {
            *guard.entry(pair).or_insert(0) += 1;
        } else if let Some(count) = guard.get_mut(&pair) {
            *count -= 1;
            if *count == 0 {
                guard.remove(&pair);
            }
        }
        self.severed_pairs.store(guard.len(), Ordering::SeqCst);
    }

    /// Whether the (unordered) pair `a`–`b` is currently severed.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        if self.severed_pairs.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.severed.read().contains_key(&pair)
    }

    /// Frames swallowed by link partitions so far.
    pub fn partition_dropped(&self) -> u64 {
        self.partition_drops.load(Ordering::Relaxed)
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Look up the mailbox hosting `node` (for the cluster operator API).
    pub fn inbox(&self, node: NodeId) -> Option<Sender<ToWorker>> {
        self.inner.read().get(&node).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, unbounded};
    use rgb_core::prelude::RingId;

    #[test]
    fn routes_and_decodes() {
        let router = Router::new();
        let (tx, rx) = unbounded();
        router.register(NodeId(2), tx);
        let out = router.send(
            GroupId(1),
            NodeId(1),
            NodeId(2),
            Msg::TokenAck { ring: RingId(0), seq: 9 },
        );
        assert_eq!(out, SendOutcome::Delivered);
        assert_eq!(router.sent(), 1);
        match rx.recv().unwrap() {
            ToWorker::Net { from, to, frame } => {
                assert_eq!(from, NodeId(1));
                assert_eq!(to, NodeId(2));
                let env = wire::decode(&frame).unwrap();
                assert_eq!(env.gid, GroupId(1));
                assert_eq!(env.msg, Msg::TokenAck { ring: RingId(0), seq: 9 });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_destination_is_counted_as_drop() {
        let router = Router::new();
        let out = router.send(
            GroupId(1),
            NodeId(1),
            NodeId(9),
            Msg::TokenAck { ring: RingId(0), seq: 1 },
        );
        assert_eq!(out, SendOutcome::Unroutable);
        assert_eq!(router.dropped(), 1);
    }

    #[test]
    fn full_mailbox_is_backpressure_not_growth() {
        let router = Router::new();
        let (tx, rx) = bounded(2);
        router.register(NodeId(5), tx);
        let mut outcomes = Vec::new();
        for seq in 0..10 {
            outcomes.push(router.send(
                GroupId(1),
                NodeId(1),
                NodeId(5),
                Msg::TokenAck { ring: RingId(0), seq },
            ));
        }
        assert_eq!(outcomes.iter().filter(|&&o| o == SendOutcome::Delivered).count(), 2);
        assert_eq!(outcomes.iter().filter(|&&o| o == SendOutcome::Backpressure).count(), 8);
        assert_eq!(router.backpressure_dropped(), 8);
        assert_eq!(router.sent(), 2);
        assert_eq!(router.dropped(), 0, "backpressure is not an unroutable drop");
        // The mailbox held exactly its capacity.
        let mut queued = 0;
        while rx.try_recv().is_ok() {
            queued += 1;
        }
        assert_eq!(queued, 2);
    }

    #[test]
    fn partition_severs_and_heals_both_directions() {
        let router = Router::new();
        let (tx_a, rx_a) = unbounded();
        let (tx_b, rx_b) = unbounded();
        router.register(NodeId(1), tx_a);
        router.register(NodeId(2), tx_b);
        router.set_partition(NodeId(2), NodeId(1), true);
        assert!(router.is_partitioned(NodeId(1), NodeId(2)));
        let out = router.send(
            GroupId(1),
            NodeId(1),
            NodeId(2),
            Msg::TokenAck { ring: RingId(0), seq: 1 },
        );
        assert_eq!(out, SendOutcome::PartitionDropped);
        router.send(GroupId(1), NodeId(2), NodeId(1), Msg::TokenAck { ring: RingId(0), seq: 2 });
        assert_eq!(router.partition_dropped(), 2);
        assert_eq!(router.dropped(), 0, "partition drops are counted separately");
        assert!(rx_a.try_recv().is_err() && rx_b.try_recv().is_err());
        router.set_partition(NodeId(1), NodeId(2), false);
        assert!(!router.is_partitioned(NodeId(2), NodeId(1)));
        router.send(GroupId(1), NodeId(1), NodeId(2), Msg::TokenAck { ring: RingId(0), seq: 3 });
        assert!(rx_b.try_recv().is_ok(), "healed link delivers again");
    }

    #[test]
    fn overlapping_partition_windows_refcount() {
        let router = Router::new();
        router.set_partition(NodeId(1), NodeId(2), true);
        router.set_partition(NodeId(2), NodeId(1), true); // second window
        assert_eq!(router.severed_pairs.load(Ordering::SeqCst), 1, "one pair, two windows");
        router.set_partition(NodeId(1), NodeId(2), false); // first heals
        assert!(
            router.is_partitioned(NodeId(1), NodeId(2)),
            "pair must stay severed until the last window ends"
        );
        router.set_partition(NodeId(1), NodeId(2), false);
        assert!(!router.is_partitioned(NodeId(1), NodeId(2)));
        // A heal with no open window is a no-op, not an underflow.
        router.set_partition(NodeId(1), NodeId(2), false);
        assert_eq!(router.severed_pairs.load(Ordering::SeqCst), 0);
        assert!(!router.is_partitioned(NodeId(1), NodeId(2)));
    }

    #[test]
    fn deregister_turns_node_into_black_hole() {
        let router = Router::new();
        let (tx, _rx) = unbounded();
        router.register(NodeId(3), tx);
        assert_eq!(router.len(), 1);
        router.deregister(NodeId(3));
        assert!(router.is_empty());
        router.send(GroupId(1), NodeId(1), NodeId(3), Msg::TokenAck { ring: RingId(0), seq: 1 });
        assert_eq!(router.dropped(), 1);
    }

    #[test]
    fn every_send_lands_in_exactly_one_counter() {
        use SendOutcome::{Backpressure, Delivered, PartitionDropped, Unroutable};
        let router = Router::new();
        let (tx, _rx) = bounded(2);
        router.register(NodeId(2), tx.clone());
        router.register(NodeId(3), tx);
        router.set_partition(NodeId(3), NodeId(1), true);
        let frame = || {
            wire::encode(&Envelope {
                gid: GroupId(1),
                msg: Msg::TokenAck { ring: RingId(0), seq: 0 },
            })
        };
        // `placed` is the tally a worker keeps of its own `Delivered` frames.
        let (mut placed, mut calls) = (0u64, 0u64);
        let mut check = |out: SendOutcome, want: SendOutcome, counted_here: bool| {
            assert_eq!(out, want);
            calls += 1;
            placed += u64::from(out == Delivered && !counted_here);
            let counted = placed
                + router.sent()
                + router.partition_dropped()
                + router.dropped()
                + router.backpressure_dropped();
            assert_eq!(counted, calls, "after a {want:?}");
        };
        // The mailbox path, as a worker takes it.
        for (to, want) in [
            (2, Delivered),
            (2, Delivered),
            (2, Backpressure),
            (9, Unroutable),
            (3, PartitionDropped),
        ] {
            check(router.route(NodeId(1), NodeId(to), frame()), want, false);
        }
        // The run-queue path: same test, same bound, same counters.
        for (to, queued, want) in [
            (2, 0, Delivered),
            (2, 3, Delivered),
            (2, 4, Backpressure),
            (3, 0, PartitionDropped),
            (3, 4, PartitionDropped),
        ] {
            check(router.admit_local(NodeId(1), NodeId(to), queued, 4), want, false);
        }
        // The public entry point counts its own deliveries.
        check(router.send_frame(NodeId(1), NodeId(9), frame()), Unroutable, true);
        router.set_partition(NodeId(1), NodeId(3), false);
        check(router.send_frame(NodeId(1), NodeId(3), frame()), Backpressure, true);
        assert_eq!(router.sent(), 0);
    }
}
