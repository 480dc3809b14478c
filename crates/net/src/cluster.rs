//! The live cluster: deploy the whole ring-based hierarchy onto a small
//! reactor worker pool and drive it through an operator API.
//!
//! Nodes are assigned to workers ring-whole and DFS-contiguous
//! ([`HierarchyLayout::partition_rings`]), so the token that circulates a
//! ring never leaves its worker: it hops along that worker's own run queue
//! and touches no mailbox ([`Cluster::worker_frame_counts`] shows the
//! split; only frames across the cut are routed). That cut is the one the
//! sharded simulator runs on, with the same bound: every worker hosts its
//! even share of the NEs to within one ring
//! ([`Cluster::worker_node_counts`]). The operator API talks
//! to workers with **blocking** sends: an operator thread parking on a full
//! mailbox is safe (it is outside the worker-to-worker graph, so no cycle),
//! whereas the data plane inside workers never parks — see
//! [`crate::transport`].

use crate::error::NetError;
use crate::reactor::{
    ClusterStats, LiveConfig, NodeSnapshot, ReactorShared, TickClock, Worker, WorkerFrames,
    WorkerSpec,
};
use crate::transport::{Router, ToWorker};
use crossbeam::channel::{bounded, Receiver, Sender};
use rgb_core::config::ProtocolConfig;
use rgb_core::events::AppEvent;
use rgb_core::node::NodeState;
use rgb_core::prelude::*;
use rgb_core::topology::HierarchyLayout;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running RGB deployment: the hierarchy multiplexed onto a reactor
/// worker pool.
pub struct Cluster {
    /// The deployed hierarchy.
    pub layout: HierarchyLayout,
    router: Router,
    events_rx: Receiver<(NodeId, AppEvent)>,
    worker_txs: Vec<Sender<ToWorker>>,
    worker_nodes: Vec<usize>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<ReactorShared>,
}

impl Cluster {
    /// Deploy every node of `layout` with protocol configuration `cfg`
    /// onto the worker pool described by `live`. All inboxes are
    /// registered before any worker starts, so early frames are never
    /// dropped.
    pub fn try_new(
        layout: HierarchyLayout,
        cfg: &ProtocolConfig,
        live: &LiveConfig,
    ) -> Result<Cluster, NetError> {
        live.validate()?;
        let router = Router::new();
        let (events_tx, events_rx) = bounded(live.event_capacity);
        let workers = live.resolved_workers().min(layout.ring_count()).max(1);
        let clock = TickClock::new(Instant::now(), live.tick);

        // Build every worker's node set up front: layout errors surface
        // before a single thread exists.
        let mut specs: Vec<(Vec<NodeState>, Receiver<ToWorker>)> = Vec::new();
        let mut worker_txs = Vec::new();
        let mut worker_nodes = Vec::new();
        let ring_counts = layout.level_ring_counts();
        for rings in layout.partition_rings(workers) {
            let (tx, rx) = bounded(live.mailbox_capacity);
            let mut states = Vec::new();
            for ring in rings {
                let members = layout
                    .ring(ring)
                    .map_err(|e| NetError::InvalidLayout {
                        node: NodeId(u64::from(ring.0)),
                        reason: e.to_string(),
                    })?
                    .nodes
                    .clone();
                for id in members {
                    let state =
                        NodeState::from_layout_with_counts(&layout, id, cfg.clone(), &ring_counts)
                            .map_err(|e| NetError::InvalidLayout {
                                node: id,
                                reason: e.to_string(),
                            })?;
                    router.register(id, tx.clone());
                    states.push(state);
                }
            }
            if states.is_empty() {
                continue; // more workers than the layout can use
            }
            worker_txs.push(tx);
            worker_nodes.push(states.len());
            specs.push((states, rx));
        }

        let shared = Arc::new(ReactorShared {
            frames: specs.iter().map(|_| WorkerFrames::default()).collect(),
            ..ReactorShared::default()
        });
        let indexer = Arc::new(layout.indexer());
        let mut handles = Vec::new();
        for (i, (states, rx)) in specs.into_iter().enumerate() {
            let spec = WorkerSpec {
                gid: layout.gid,
                worker: i,
                clock,
                indexer: Arc::clone(&indexer),
                rx,
                mailbox_capacity: live.mailbox_capacity,
                router: router.clone(),
                events: events_tx.clone(),
                shared: Arc::clone(&shared),
                states,
            };
            let spawned = std::thread::Builder::new()
                .name(format!("rgb-worker-{i}"))
                .spawn(move || Worker::new(spec).run());
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind the part of the pool that did start.
                    for tx in &worker_txs {
                        let _ = tx.send(ToWorker::Stop);
                    }
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(NetError::Spawn { reason: e.to_string() });
                }
            }
        }

        Ok(Cluster { layout, router, events_rx, worker_txs, worker_nodes, handles, shared })
    }

    /// Number of reactor workers actually running.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// NEs deployed on each running worker, in worker order (crashes do
    /// not change it): the split whose evenness is the pool's load balance.
    pub fn worker_node_counts(&self) -> Vec<usize> {
        self.worker_nodes.clone()
    }

    /// Frames each running worker has placed so far, in worker order, as
    /// `(local, routed)`: onto its own run queue because it hosts the
    /// destination too, or into a mailbox through the [`Router`]. Workers
    /// publish once per loop turn; the two columns add up to
    /// [`ClusterStats::frames_sent`].
    pub fn worker_frame_counts(&self) -> Vec<(u64, u64)> {
        let counts =
            |w: &WorkerFrames| (w.local.load(Ordering::Relaxed), w.routed.load(Ordering::Relaxed));
        self.shared.frames.iter().map(counts).collect()
    }

    /// Deliver a mobile-host event to an access proxy.
    pub fn mh_event(&self, ap: NodeId, event: MhEvent) {
        if let Some(tx) = self.router.inbox(ap) {
            let _ = tx.send(ToWorker::Mh { ap, event });
        }
    }

    /// Start a membership query at `node`; the result arrives on the event
    /// stream.
    pub fn query(&self, node: NodeId, scope: QueryScope) {
        if let Some(tx) = self.router.inbox(node) {
            let _ = tx.send(ToWorker::Query { node, scope });
        }
    }

    /// Snapshot a node's state (blocks up to `timeout`; `None` for a
    /// crashed or unknown node).
    pub fn snapshot(&self, node: NodeId, timeout: Duration) -> Option<NodeSnapshot> {
        let tx = self.router.inbox(node)?;
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(ToWorker::Snapshot { node, reply: reply_tx }).ok()?;
        reply_rx.recv_timeout(timeout).ok()
    }

    /// Crash a node: its hosting worker drops the state and its address
    /// routes to nowhere. The worker itself keeps serving its other nodes.
    pub fn crash(&self, node: NodeId) {
        if let Some(tx) = self.router.inbox(node) {
            let _ = tx.send(ToWorker::Crash { node });
        }
        self.router.deregister(node);
    }

    /// Drain application events until `pred` returns `Some`, up to
    /// `timeout`.
    pub fn wait_event<T, F: FnMut(NodeId, &AppEvent) -> Option<T>>(
        &self,
        timeout: Duration,
        mut pred: F,
    ) -> Option<T> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            match self.events_rx.recv_timeout(remaining) {
                Ok((node, ev)) => {
                    if let Some(t) = pred(node, &ev) {
                        return Some(t);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// Poll until `guid` is operational in `node`'s ring membership.
    pub fn wait_member_at(&self, node: NodeId, guid: Guid, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Some(snap) = self.snapshot(node, Duration::from_millis(500)) {
                if snap.ring_members.contains_operational(guid) {
                    return true;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    /// Cluster-wide transport and delivery counters.
    pub fn stats(&self) -> ClusterStats {
        let by_workers: u64 = (self.shared.frames.iter())
            .map(|w| w.local.load(Ordering::Relaxed) + w.routed.load(Ordering::Relaxed))
            .sum();
        ClusterStats {
            frames_sent: self.router.sent() + by_workers,
            dropped_frames: self.router.dropped(),
            backpressure_dropped: self.router.backpressure_dropped(),
            partition_dropped: self.router.partition_dropped(),
            app_events: self.shared.app_events.load(Ordering::Relaxed),
            app_events_dropped: self.shared.app_events_dropped.load(Ordering::Relaxed),
            codec_rejected: self.shared.codec_rejected.load(Ordering::Relaxed),
        }
    }

    /// Per-ring-level repair and query samples so far, in wall ticks, as
    /// each node's [`rgb_core::obs::NodeLatency`] closed them (join
    /// anchoring is simulator-only). The same shape the simulators merge,
    /// so live and simulated runs export through one path.
    pub fn level_latency(&self) -> rgb_core::obs::LevelHistograms {
        self.shared.latency.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Sever or heal the link between two NEs (both directions) — the
    /// operator-API face of scheduled [`rgb_core::faults::LinkPartition`]
    /// windows during scenario replay.
    pub fn set_partition(&self, a: NodeId, b: NodeId, severed: bool) {
        self.router.set_partition(a, b, severed);
    }

    /// Stop every worker and join the pool.
    pub fn shutdown(mut self) {
        for tx in &self.worker_txs {
            let _ = tx.send(ToWorker::Stop);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
