//! `rgb_sim::par` — the sharded conservative-parallel simulation engine.
//!
//! [`ParSimulation`] runs the same protocol world as the sequential
//! [`Simulation`](crate::sim::Simulation), split across shards:
//!
//! 1. **Partitioning** is hierarchy-aware
//!    ([`rgb_core::topology::HierarchyLayout::partition_rings`] via
//!    `partition::ShardMap`): rings are never split and sponsored
//!    subtrees stay contiguous, so intra-ring token traffic and most
//!    parent–child traffic is shard-local. The cut is also the whole load
//!    balance — a shard is one dispatch loop with no scheduler behind it,
//!    and every window ends at a barrier the slowest shard sets — so it
//!    falls at the ring boundary nearest each ideal prefix and every shard
//!    holds its even share of the nodes to within one ring.
//!    [`ParSimulation::shard_loads`] reports what each shard held and did;
//!    the sums alone cannot show an uneven split.
//! 2. **Each shard** holds its rings as one world of the crate-private
//!    `world` module — the dispatch loop, arena, timer wheel and per-node
//!    random streams the sequential engine runs over the whole layout — on
//!    its own clock and metrics (`shard::Shard`); a frame for a node on
//!    another shard is staged in the world's outbox instead of its queue.
//! 3. **Synchronisation is conservative, per shard pair**: the *lookahead
//!    matrix* (`partition::LookaheadMatrix`) records the minimum
//!    [`LatencyBand`](crate::network::LatencyBand) floor over link classes
//!    that cross each ordered shard pair. Every window, each shard `j`
//!    advances to its own horizon `min_i(clock_i + floor(i, j)) - 1` —
//!    the last tick no *incoming* edge can contradict — so a tight
//!    inter-tier sponsor pair no longer throttles shards it never talks
//!    to, and a shard with no incoming edges runs free to the deadline.
//!    Every thread replicates the full clock vector with the same pure
//!    arithmetic over the same barrier-published data, so one barrier per
//!    window suffices; clocks drift apart only as far as the pair floors
//!    allow. Cross-shard frames travel as **one batched `Vec` per
//!    destination per window** through `crossbeam` channel mailboxes
//!    (buffers recycled at the barrier), and every mailbox entry is
//!    merged into the destination's queue *before* the window that
//!    contains its arrival tick.
//! 4. **Idle windows are skipped**: each shard publishes a lower bound on
//!    its next event at the barrier; when the global minimum lies beyond
//!    every clock, all clocks jump to it (quantised down to the
//!    global-floor grid so window boundaries — and therefore event order
//!    — are unchanged). Sparse scenarios pay for events, not for empty
//!    simulated time.
//! 5. **Zero lookahead** (instant networks) admits no conservative
//!    window, so [`ParSimulation::new`] holds such a layout as one shard:
//!    the window driver then runs it to each deadline on one thread, with
//!    the sequential semantics.
//! 6. **Every scheduled event lands in a world**: the holder's, or shard
//!    0's for an id outside the layout — the whole world's rule. Queue
//!    lengths, pending disruptions and the crash set are therefore read off
//!    the worlds, exactly as sequentially.
//!
//! ## Determinism
//!
//! The engine is not "deterministic for a fixed shard count" — it is
//! **trace-equivalent to the sequential engine**, for every shard count.
//! The world core keys randomness and event order by provenance, so a node's
//! behaviour depends only on the inputs *it* receives (see the `world`
//! module docs); what this module adds is the window protocol's guarantee
//! that every event is enqueued before its window is processed. Each node
//! therefore sees the identical input sequence it would have seen
//! sequentially, and [`ParSimulation::system_digest`] reproduces the
//! sequential [`SystemDigest`] byte for byte. The `par_equivalence`
//! integration test pins this across seeds × shard counts × fault plans,
//! and against committed fingerprints.

pub(crate) mod partition;
pub(crate) mod shard;

use crate::metrics::{Metrics, ParStats, ShardLoad};
use crate::network::{LinkClassMatrix, NetConfig, NetworkModel};
use crate::queue::Event;
use crate::sim::MemoryStats;
use crate::world::{Part, Schedule, World};
use partition::{LookaheadMatrix, ShardMap};
use rgb_core::node::NodeState;
use rgb_core::prelude::*;
use rgb_core::topology::{HierarchyLayout, NodeIndexer};
use shard::Shard;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A window barrier with **panic poisoning**: when any window thread
/// unwinds (a protocol invariant `panic!`, a mailbox failure), it poisons
/// the barrier on the way out, every parked peer wakes with `Err`, exits
/// its window loop, and `std::thread::scope` can join and propagate the
/// original panic. With `std::sync::Barrier` the surviving threads would
/// block forever — a hung CI job instead of a backtrace.
struct WindowBarrier {
    state: Mutex<WindowBarrierState>,
    cv: Condvar,
    threads: usize,
}

struct WindowBarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// The barrier was poisoned by a panicking peer.
struct BarrierPoisoned;

impl WindowBarrier {
    fn new(threads: usize) -> Self {
        WindowBarrier {
            state: Mutex::new(WindowBarrierState { arrived: 0, generation: 0, poisoned: false }),
            cv: Condvar::new(),
            threads,
        }
    }

    /// Block until every thread arrives (like `Barrier::wait`), or until a
    /// peer poisons the barrier.
    fn wait(&self) -> Result<(), BarrierPoisoned> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.poisoned {
            return Err(BarrierPoisoned);
        }
        state.arrived += 1;
        if state.arrived == self.threads {
            state.arrived = 0;
            state.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let generation = state.generation;
        while state.generation == generation && !state.poisoned {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.poisoned {
            Err(BarrierPoisoned)
        } else {
            Ok(())
        }
    }

    fn poison(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.poisoned = true;
        self.cv.notify_all();
    }
}

/// Poisons the barrier if dropped during a panic (one lives on each
/// window thread's stack).
struct PoisonOnPanic<'a>(&'a WindowBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The sharded conservative-parallel discrete-event engine (see module
/// docs).
#[derive(Debug)]
pub struct ParSimulation {
    /// The hierarchy under simulation.
    pub layout: HierarchyLayout,
    indexer: Arc<NodeIndexer>,
    map: Arc<ShardMap>,
    shards: Vec<Shard>,
    /// Driver clock: the deadline of the last [`ParSimulation::run_until`].
    now: u64,
    /// Per-ordered-pair conservative floors (see
    /// [`partition::LookaheadMatrix`]); its global minimum is `u64::MAX`
    /// when at most one shard is populated.
    la: LookaheadMatrix,
    /// Scheduled-event keys and the wireless MH→AP hop: the sequential
    /// engine's, so scheduled events carry identical keys and fates.
    schedule: Schedule,
    /// Send/loss counters accrued at schedule time (wireless hop), merged
    /// into [`ParSimulation::metrics`].
    driver_metrics: Metrics,
}

impl ParSimulation {
    /// Build a parallel simulation over `layout` with every node running
    /// `cfg`, split into `shards` shards — or held as one shard when `net`
    /// admits no conservative window (a zero floor between two shards, as
    /// on an instant network).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `net` fails
    /// [`NetConfig::validate`].
    pub fn new(
        layout: HierarchyLayout,
        cfg: &ProtocolConfig,
        net: NetConfig,
        seed: u64,
        shards: usize,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let indexer = Arc::new(layout.indexer());
        let classes = Arc::new(LinkClassMatrix::new(&layout, &indexer));
        let mut map = ShardMap::new(&layout, &indexer, shards);
        let mut la = LookaheadMatrix::new(&layout, &indexer, &map, &net);
        if la.global() == 0 {
            map = ShardMap::new(&layout, &indexer, 1);
            la = LookaheadMatrix::new(&layout, &indexer, &map, &net);
        }
        let map = Arc::new(map);
        let model = NetworkModel::new(net);
        let schedule = Schedule::new(seed, layout.gid, model.clone());
        let shards = (0..map.shards)
            .map(|id| {
                let part = Part { id, map: Arc::clone(&map) };
                let world = World::new(
                    &layout,
                    cfg,
                    model.clone(),
                    seed,
                    Arc::clone(&indexer),
                    Arc::clone(&classes),
                    Some(part),
                );
                Shard::new(world)
            })
            .collect();
        ParSimulation {
            layout,
            indexer,
            map,
            shards,
            now: 0,
            la,
            schedule,
            driver_metrics: Metrics::default(),
        }
    }

    /// Number of shards (including empty ones; one for a network that
    /// admits no window).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global conservative floor in force — the minimum over every
    /// shard pair's lookahead (see module docs), `u64::MAX` when there is
    /// no pair (one populated shard, an instant network's included).
    /// Individual pairs may admit much longer windows; see
    /// [`ParSimulation::lookahead_range`].
    pub fn lookahead(&self) -> u64 {
        self.la.global()
    }

    /// `(min, max)` finite pair floors of the lookahead matrix: how much
    /// per-pair slack the topology offers over the single global floor.
    pub fn lookahead_range(&self) -> (u64, u64) {
        (self.la.global(), self.la.max_pair())
    }

    /// Aggregated window/batching counters across every shard (all zero
    /// until a run executes).
    pub fn par_stats(&self) -> ParStats {
        let mut total = ParStats::default();
        for shard in &self.shards {
            total.merge(&shard.metrics.par);
        }
        total
    }

    /// What each shard holds and did, in shard order (empty shards
    /// included): the terms [`ParSimulation::par_stats`] and
    /// [`ParSimulation::processed_events`] sum over. A shard that executes
    /// for long while its peers wait at the barrier shows here and nowhere
    /// else.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|s| ShardLoad {
                nodes: s.world.nodes.len(),
                processed: s.processed,
                par: s.metrics.par,
            })
            .collect()
    }

    /// Current driver time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Boot every node (each shard boots its own, then boot-time
    /// cross-shard frames are exchanged once).
    pub fn boot_all(&mut self) {
        for shard in &mut self.shards {
            shard.run().boot_all();
        }
        self.flush_outboxes();
    }

    /// Cap every node's delivery log (see
    /// [`crate::sim::Simulation::set_delivered_cap`]).
    pub fn set_delivered_cap(&mut self, cap: usize) {
        for shard in &mut self.shards {
            shard.world.delivered_cap = cap;
        }
    }

    /// Enable observability on every shard: `make_sink` builds one sink
    /// per shard (keyed by shard id), so trace recording inside the
    /// window threads stays lock-free. Tracking never touches node
    /// inputs, RNG streams or event keys, so enabling it leaves
    /// [`ParSimulation::system_digest`] streams byte-identical.
    pub fn enable_obs<F>(&mut self, mut make_sink: F)
    where
        F: FnMut(usize) -> Box<dyn rgb_core::obs::TraceSink>,
    {
        for (id, shard) in self.shards.iter_mut().enumerate() {
            shard.world.obs.enable(make_sink(id));
        }
    }

    /// Enable latency tracking only (no trace retention) — the explorer's
    /// mode: per-level histograms feed coverage features at no trace cost.
    pub fn enable_obs_tracking(&mut self) {
        self.enable_obs(|_| Box::new(rgb_core::obs::NullSink));
    }

    /// Retained trace records merged across every shard and sorted into
    /// [`rgb_core::obs::ObsRecord`]'s `(at, node, …)` order —
    /// set-equal to the sequential engine's snapshot for the same run and
    /// ample sink capacity.
    pub fn trace_snapshot(&self) -> Vec<rgb_core::obs::ObsRecord> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.world.obs.trace_snapshot());
        }
        all.sort_unstable();
        all
    }

    /// Trace records evicted by sink capacity bounds, across every shard.
    pub fn trace_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.world.obs.trace_dropped()).sum()
    }

    /// Merged per-ring-level latency surfaces across every shard (empty
    /// unless obs was enabled) — equal to the sequential engine's for the
    /// same run, because ring-wholesale sharding keeps every latency
    /// interval on one shard.
    pub fn level_latency(&self) -> rgb_core::obs::LevelHistograms {
        let mut levels = rgb_core::obs::LevelHistograms::new();
        for shard in &self.shards {
            levels.merge(&shard.metrics.levels);
        }
        levels
    }

    /// Join intervals discarded because a shard's first-seen table hit
    /// its cap (accounting trim only; protocol behaviour is unaffected).
    pub fn obs_first_seen_overflow(&self) -> u64 {
        self.shards.iter().map(|s| s.world.obs.first_seen_overflow()).sum()
    }

    /// The shard whose world takes events for `node`: the one holding it,
    /// or shard 0 for an id outside the layout (see module docs).
    fn owner(&self, node: NodeId) -> usize {
        self.indexer.index_of(node).map_or(0, |global| self.map.shard_of(global))
    }

    /// Land a scheduled event in the queue of `node`'s owner.
    fn route_to_owner(&mut self, node: NodeId, event: Event) {
        let owner = self.owner(node);
        self.shards[owner].enqueue(event);
    }

    /// Schedule a mobile-host event against access proxy `ap` (wireless
    /// hop resolved now, exactly like the sequential engine).
    pub fn schedule_mh(&mut self, delay: u64, ap: NodeId, event: MhEvent) {
        let send_at = self.now.saturating_add(delay);
        if let Some(event) = self.schedule.mh(send_at, ap, event, &mut self.driver_metrics) {
            self.route_to_owner(ap, event);
        }
    }

    /// Schedule a node crash (ids outside the layout join the crash set
    /// when it runs, without any other effect, like sequentially).
    pub fn crash_at(&mut self, delay: u64, node: NodeId) {
        let event = self.schedule.crash(self.now.saturating_add(delay), node);
        self.route_to_owner(node, event);
    }

    /// Schedule a membership query issued at `node`.
    pub fn schedule_query(&mut self, delay: u64, node: NodeId, scope: QueryScope) {
        let event = self.schedule.query(self.now.saturating_add(delay), node, scope);
        self.route_to_owner(node, event);
    }

    /// Schedule a timed link partition. The transition events are
    /// replicated to the owners of both endpoints — each shard keeps its
    /// own severed-pair list, and only an endpoint's shard ever consults
    /// this pair (the drop check runs on the sender's shard, and the sender
    /// of an affected frame is always an endpoint).
    pub fn schedule_partition(&mut self, p: LinkPartition) {
        let transitions = self.schedule.partition(self.now, p);
        let owners = [self.owner(p.a), self.owner(p.b)];
        let targets = if owners[0] == owners[1] { &owners[..1] } else { &owners[..] };
        for &s in targets {
            for event in &transitions {
                self.shards[s].enqueue(event.clone());
            }
        }
    }

    /// Single-threaded outbox routing of the boot-time frames.
    fn flush_outboxes(&mut self) {
        for from in 0..self.shards.len() {
            for dest in 0..self.shards.len() {
                for event in std::mem::take(&mut self.shards[from].world.outbox[dest]) {
                    self.shards[dest].enqueue(event);
                }
            }
        }
    }

    /// Run until simulated time reaches `deadline` (events beyond it stay
    /// queued), windows permitting parallel execution.
    pub fn run_until(&mut self, deadline: u64) {
        // `run_until(now)` is not a no-op: what is due at `now` (a delay-0
        // schedule, a zero-latency cascade) is drained, as sequentially.
        if deadline < self.now {
            return;
        }
        self.run_windowed(deadline);
        self.now = deadline;
    }

    /// Windowed execution: one thread per populated shard, one barrier
    /// per window, per-shard horizons from the lookahead matrix.
    ///
    /// Every thread tracks the **full clock vector** — `clocks[i]` is a
    /// lower bound on shard `i`'s next unprocessed tick — and advances it
    /// with identical pure arithmetic over identical barrier-published
    /// data, so the replicas never disagree and no extra synchronisation
    /// round is needed. One window is:
    ///
    /// 1. compute `horizons[j] = min(deadline, min_i(clocks[i] +
    ///    floor(i, j)) - 1)` for every active shard — the last tick `j`
    ///    may process, because any future frame from `i` is sent at
    ///    `clocks[i]` or later and spends at least `floor(i, j)` ticks in
    ///    flight (so arrives strictly after `horizons[j]`);
    /// 2. process own window through `horizons[me]`, flush outboxes as
    ///    one batch per destination, and publish a progress bound: the
    ///    minimum of the local queue's next `at` and every `at` just
    ///    flushed (the destination has not seen those yet);
    /// 3. barrier — the barrier's mutex is the release/acquire edge for
    ///    the relaxed publishes;
    /// 4. drain mailbox batches (a frame sent in some window arrives
    ///    strictly after the sender's clock plus the pair floor, which
    ///    step 1 keeps beyond every receiver horizon — so every event is
    ///    enqueued before the window containing its arrival tick);
    /// 5. advance every clock past its horizon, then **idle-skip**: if
    ///    the minimum published bound lies beyond a clock, jump it
    ///    forward (quantised down to the global-floor grid anchored at
    ///    the run start, so window boundaries — and event order — are
    ///    exactly what a non-skipping run would produce).
    ///
    /// Publishes are double-buffered by window parity: a shard racing one
    /// window ahead writes the other slot, never one a peer still reads.
    fn run_windowed(&mut self, deadline: u64) {
        let start = self.now;
        let nshards = self.shards.len();
        let active: Vec<bool> = (self.shards.iter())
            .map(|s| !(s.world.nodes.is_empty() && s.queue_len() == 0))
            .collect();
        let threads = active.iter().filter(|&&a| a).count();
        if threads <= 1 {
            // Nothing can cross shards: drive the one populated shard
            // (if any) straight to the deadline.
            for (shard, _) in self.shards.iter_mut().zip(&active).filter(|(_, &a)| a) {
                let t0 = std::time::Instant::now();
                shard.run_window(deadline);
                shard.metrics.par.execute_nanos += t0.elapsed().as_nanos() as u64;
                shard.metrics.par.windows += 1;
            }
            return;
        }
        // Idle-skip grid: the spacing windows would have without skipping.
        let grid = self.la.global().max(1);
        let barrier = WindowBarrier::new(threads);
        let channels: Vec<_> =
            (0..nshards).map(|_| crossbeam::channel::unbounded::<Vec<Event>>()).collect();
        let txs: Vec<_> = channels.iter().map(|(tx, _)| tx.clone()).collect();
        let mut rxs: Vec<_> = channels.into_iter().map(|(_, rx)| Some(rx)).collect();
        let published: Vec<[AtomicU64; 2]> =
            (0..nshards).map(|_| [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)]).collect();
        let barrier = &barrier;
        let txs = &txs;
        let published = &published;
        let active = &active;
        let la = &self.la;
        std::thread::scope(|scope| {
            for (me, (shard, rx)) in self.shards.iter_mut().zip(rxs.iter_mut()).enumerate() {
                if !active[me] {
                    continue;
                }
                let rx = rx.take().expect("one thread per shard");
                scope.spawn(move || {
                    // If this thread panics (protocol invariant, mailbox
                    // failure), poison the barrier so peers exit instead
                    // of waiting forever; the scope join then propagates
                    // the panic.
                    let _guard = PoisonOnPanic(barrier);
                    let mut clocks = vec![u64::MAX; nshards];
                    for (clock, &live) in clocks.iter_mut().zip(active) {
                        if live {
                            *clock = start;
                        }
                    }
                    let mut horizons = vec![0u64; nshards];
                    let mut parity = 0usize;
                    loop {
                        for j in 0..nshards {
                            if active[j] {
                                horizons[j] = la.horizon_of(&clocks, j, deadline);
                            }
                        }
                        // Wall-clock phase accounting (execute / flush /
                        // barrier / drain). Reads of the monotonic clock
                        // never feed back into event content or order, so
                        // timing cannot perturb determinism; the barrier
                        // bucket is the load-imbalance signal.
                        let t0 = std::time::Instant::now();
                        shard.run_window(horizons[me]);
                        shard.metrics.par.windows += 1;
                        let t1 = std::time::Instant::now();
                        shard.metrics.par.execute_nanos += (t1 - t0).as_nanos() as u64;
                        let sent_min = shard.flush_batches(txs);
                        let bound = shard.next_event_at().min(sent_min);
                        published[me][parity].store(bound, Ordering::Relaxed);
                        let t2 = std::time::Instant::now();
                        shard.metrics.par.flush_nanos += (t2 - t1).as_nanos() as u64;
                        if barrier.wait().is_err() {
                            return;
                        }
                        let t3 = std::time::Instant::now();
                        shard.metrics.par.barrier_nanos += (t3 - t2).as_nanos() as u64;
                        shard.drain_batches(&rx);
                        shard.metrics.par.drain_nanos += t3.elapsed().as_nanos() as u64;
                        for j in 0..nshards {
                            if active[j] {
                                clocks[j] = clocks[j].max(horizons[j].saturating_add(1));
                            }
                        }
                        let mut t_next = u64::MAX;
                        for (slots, &live) in published.iter().zip(active) {
                            if live {
                                t_next = t_next.min(slots[parity].load(Ordering::Relaxed));
                            }
                        }
                        // t_next == MAX means no shard has any event left
                        // (flushed frames count as their sender's pending
                        // work, so in-flight batches can't be missed):
                        // jump straight to the deadline.
                        let jump = if t_next == u64::MAX {
                            deadline
                        } else {
                            // Quantise down to the grid so the jump lands
                            // on a boundary a non-skipping run would have
                            // used anyway.
                            start + ((t_next.saturating_sub(start)) / grid) * grid
                        }
                        .min(deadline);
                        for j in 0..nshards {
                            if active[j] && clocks[j] < jump {
                                clocks[j] = jump;
                                if j == me {
                                    shard.metrics.par.idle_skips += 1;
                                }
                            }
                        }
                        if clocks.iter().zip(active).all(|(&c, &live)| !live || c > deadline) {
                            break;
                        }
                        parity ^= 1;
                    }
                });
            }
        });
    }

    /// Total events processed across all shards.
    pub fn processed_events(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Queued entries across all shards (stale timer entries and
    /// replicated partition transitions included).
    pub fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.queue_len()).sum()
    }

    /// Scheduled disruptions still queued across all shards.
    pub fn pending_disruptions(&self) -> usize {
        self.shards.iter().map(|s| s.world.events.disruptions()).sum()
    }

    /// Whether `node` has crashed (ids outside the layout included once
    /// their scheduled crash ran).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.shards[self.owner(node)].world.is_crashed(node)
    }

    /// The four scalar counter totals a run trace records, summed across
    /// the driver and every shard without touching the histograms —
    /// cheap enough for a per-observation oracle loop (the full
    /// [`ParSimulation::metrics`] merge clones every latency sample).
    pub fn counter_totals(&self) -> crate::engine::EngineCounters {
        let mut totals = crate::engine::EngineCounters {
            sent_total: self.driver_metrics.sent_total,
            app_events: self.driver_metrics.app_events,
            lost: self.driver_metrics.lost,
            partition_dropped: self.driver_metrics.partition_dropped,
        };
        for shard in &self.shards {
            totals.sent_total += shard.metrics.sent_total;
            totals.app_events += shard.metrics.app_events;
            totals.lost += shard.metrics.lost;
            totals.partition_dropped += shard.metrics.partition_dropped;
        }
        totals
    }

    /// Merged metrics: the driver's schedule-time counters plus every
    /// shard's, folded with [`Metrics::merge`]. Totals equal the
    /// sequential engine's for the same run.
    pub fn metrics(&self) -> Metrics {
        let mut merged = self.driver_metrics.clone();
        for shard in &self.shards {
            merged.merge(&shard.metrics);
        }
        merged
    }

    /// Aggregate memory accounting across shards.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for shard in &self.shards {
            stats.merge(&shard.world.memory_stats());
        }
        stats
    }

    /// Oracle-facing digest of the whole system, byte-identical to the
    /// sequential engine's at every `run_until` boundary.
    pub fn system_digest(&self, settled: bool) -> SystemDigest {
        let mut tagged: Vec<_> = (self.shards.iter())
            .flat_map(|s| s.world.alive().map(|(global, node)| (global, node.digest())))
            .collect();
        tagged.sort_by_key(|&(global, _)| global);
        let nodes = tagged.into_iter().map(|(_, digest)| digest).collect();
        SystemDigest { now: self.now, nodes, crashed: self.crashed_set(), settled }
    }

    /// Crashed NEs so far: every world's crash record (ids outside the
    /// layout included, like sequentially).
    pub fn crashed_set(&self) -> BTreeSet<NodeId> {
        self.shards.iter().flat_map(|s| s.world.crashed_ids.iter().copied()).collect()
    }

    /// Every node's protocol state, in id order (cold path: gathers across
    /// shards).
    pub fn nodes_iter(&self) -> impl Iterator<Item = (NodeId, &NodeState)> + '_ {
        self.indexer.iter().map(|(global, id)| {
            let shard = &self.shards[self.map.shard_of(global)];
            (id, &shard.world.nodes[self.map.local_of(global).as_usize()])
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::ParStats;
    use crate::workload::ChurnParams;
    use crate::{NetConfig, Scenario};
    use bytes::Bytes;
    use rgb_core::prelude::*;
    use rgb_core::substrate::FramePool;
    use rgb_core::wire;

    fn assert_bounded(pool: &FramePool, whose: &str) {
        let buffers = pool.buffers();
        assert!(buffers.len() <= FramePool::MAX_BUFFERS, "{whose}: {} buffers", buffers.len());
        for buf in buffers {
            assert!(buf.capacity() <= FramePool::MAX_BUFFER_BYTES, "{whose}: oversized buffer");
        }
    }

    /// A join storm over a duplicating, reordering network: frames are
    /// recycled while their duplicates are still in flight, and cross-shard
    /// ones by another pool than the one they were taken from. Nothing of
    /// that may show in the protocol: every frame still decodes, Seq and
    /// Par(4) digests stay byte-identical, and every pool stays within its
    /// bounds. (No loss and on-demand tokens, so the pools can be seen in
    /// use: a pool holds the gap between the peak and the current number of
    /// frames in flight, which a lost frame narrows for good and a
    /// continuously circulating token keeps near zero.)
    #[test]
    fn frame_pools_stay_bounded_and_invisible_through_a_dup_reorder_storm() {
        let mut net = NetConfig::unit();
        net.dup = 0.10;
        net.reorder = 0.10;
        net.reorder_extra = 7;
        let sc = Scenario::new("dup reorder join storm", 2, 4)
            .with_net(net)
            .with_seed(5)
            .with_duration(3_000)
            .with_churn(ChurnParams {
                initial_members: 60,
                mean_join_interval: 10.0,
                mean_lifetime: 1_500.0,
                failure_fraction: 0.2,
                duration: 3_000,
            });
        let mut seq = sc.build_sim();
        let mut par = sc.try_build_par(4).expect("scenario validates");
        for t in [700, 1_900, 3_000] {
            seq.run_until(t);
            par.run_until(t);
            assert_eq!(seq.system_digest(false), par.system_digest(false), "diverged at {t}");
        }
        assert!(seq.metrics.duplicated > 0 && seq.metrics.reordered > 0, "storm never fired");
        assert_eq!(seq.metrics.codec_rejected, 0);
        assert_eq!(par.metrics().codec_rejected, 0);
        assert!(!seq.world.frames.buffers().is_empty(), "sequential pool never used");
        assert!(
            par.shards.iter().any(|s| !s.world.frames.buffers().is_empty()),
            "shard pools never used"
        );
        assert_bounded(&seq.world.frames, "seq");
        for shard in &par.shards {
            assert_bounded(&shard.world.frames, "shard");
        }
    }

    /// The loop behaviours `sim.rs` tests on the whole world — garbage and
    /// foreign-group frames rejected, a severed pair dropping frames until
    /// it heals, the delivery cap — driven on a 2-shard world through a
    /// pair of nodes that live on different shards: each is counted once,
    /// by the shard the whole world's rule says, and the merged metrics are
    /// the sequential engine's.
    #[test]
    fn a_part_rejects_severs_and_caps_like_the_whole_world() {
        let sc = Scenario::new("cross-shard pair", 2, 3)
            .with_net(NetConfig::unit())
            .with_seed(3)
            .with_delivered_cap(1)
            .with_duration(2_000);
        let aps = sc.layout().aps();
        let sc = (0..5u64).fold(sc, |sc, g| sc.join(g, aps[0], Guid(g), Luid(1)));
        let mut seq = sc.build_sim();
        let mut par = sc.try_build_par(2).expect("scenario validates");
        let (a, b) =
            (par.indexer.id_of(par.map.members[0][0]), par.indexer.id_of(par.map.members[1][0]));
        let gid = par.layout.gid;
        let ack =
            |gid| wire::encode(&Envelope { gid, msg: Msg::TokenAck { ring: RingId(0), seq: 1 } });
        // One frame from `a` (on shard 0) to `b` (on shard 1), on both engines.
        let send = |seq: &mut crate::Simulation, par: &mut super::ParSimulation, frame: Bytes| {
            seq.send_frame(a, b, MsgLabel::TokenAck, frame.clone());
            par.shards[0].run().send_frame(a, b, MsgLabel::TokenAck, frame);
            par.flush_outboxes();
        };
        let window = LinkPartition { at: 10, heal_at: 50, a, b };
        seq.schedule_partition(window);
        par.schedule_partition(window);

        send(&mut seq, &mut par, Bytes::from(vec![1, 2, 3]));
        send(&mut seq, &mut par, ack(GroupId(99)));
        seq.run_until(20);
        par.run_until(20);
        assert_eq!(par.shards[1].metrics.codec_rejected, 2, "the receiving shard rejects");
        assert_eq!(par.shards[0].metrics.codec_rejected, 0);

        send(&mut seq, &mut par, ack(gid));
        assert_eq!(par.shards[0].metrics.partition_dropped, 1, "the sender's shard drops, once");
        assert_eq!(
            par.shards[1].metrics.partition_dropped, 0,
            "b's shard severs the pair too, but sent nothing"
        );
        seq.run_until(60);
        par.run_until(60);
        send(&mut seq, &mut par, ack(gid));
        assert_eq!(par.metrics().partition_dropped, 1, "healed link passes frames");

        seq.run_until(sc.duration);
        par.run_until(sc.duration);
        assert_eq!(seq.system_digest(false), par.system_digest(false));
        assert!(seq.metrics.app_events_dropped > 0, "cap must have dropped events");
        let mut merged = par.metrics();
        merged.par = ParStats::default(); // windows and batches: the sequential engine has none
        assert_eq!(format!("{merged:?}"), format!("{:?}", seq.metrics));
    }
}
