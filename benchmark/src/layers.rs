//! The layers below `Simulation::step`, priced from outside.
//!
//! The engines expose no spans of their own yet, so the traced pass prices
//! each layer by replaying a recorded corpus through the layer's public
//! functions in batches of at least 10,000 operations per span. The corpus
//! is captured once per run by driving the first `small_worlds` layout
//! (with a denser mobile-host and query schedule, so rare input kinds get
//! enough samples) through a small recording [`Substrate`]: every
//! `(node, Input)` pair handed to `NodeState::handle_into` and every
//! `(label, frame)` pair `apply_outputs` encodes.
//!
//! The replayed prices are cache-hot unit prices. [`Ledger::report`] weights
//! them by a workload's own public counters (`Metrics::by_label`,
//! `by_class`, `stale_timer_skips`) and states how much of the measured
//! `step()` time they explain (`sim.sim.residual_share`).
//!
//! `rgb_sim::queue` is crate-private. Its prices are taken through the
//! thinnest public wrappers: `Simulation::crash_at` is a push (near delay =
//! wheel, delay >= 1024 = far heap) and `Simulation::step` on a crash event
//! of an id outside the layout is a pop plus one set insert.

use crate::spans::Recorder;
use crate::workloads::{Counters, Outcome};
use bytes::Bytes;
use rgb_core::node::NodeState;
use rgb_core::obs::{FlightRecorder, ObsKind, ObsRecord, TraceSink};
use rgb_core::prelude::*;
use rgb_core::wire;
use rgb_net::Router;
use rgb_sim::{
    LinkClass, LinkClassMatrix, NetConfig, NetworkModel, Scenario, Simulation, SplitMix64,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Minimum operations inside one replay span.
const BATCH: usize = 10_000;

/// Index of an input kind in [`Ledger::handle_ns`].
const KIND_MSG: usize = 0;
const KIND_TIMER: usize = 1;
const KIND_MH: usize = 2;
const KIND_QUERY: usize = 3;

/// What the capture run queues for later.
enum Pending {
    Frame { from: NodeId, to: NodeId, frame: Bytes },
    Timer { node: NodeId, kind: TimerKind, gen: u64 },
    Mh { ap: NodeId, event: MhEvent },
    Query { node: NodeId, scope: QueryScope },
    Crash { node: NodeId },
}

/// The recording substrate: unit latency, generation-stamped timers, and a
/// log of every frame sent.
#[derive(Default)]
struct Capture {
    now: u64,
    seq: u64,
    queue: BTreeMap<(u64, u64), Pending>,
    armed: BTreeMap<(NodeId, TimerKind), u64>,
    frames: Vec<(MsgLabel, Bytes)>,
}

impl Capture {
    fn push(&mut self, at: u64, pending: Pending) {
        self.queue.insert((at, self.seq), pending);
        self.seq += 1;
    }
}

impl Substrate for Capture {
    fn now(&self) -> u64 {
        self.now
    }

    fn send_frame(&mut self, from: NodeId, to: NodeId, label: MsgLabel, frame: Bytes) {
        self.frames.push((label, frame.clone()));
        self.push(self.now + 1, Pending::Frame { from, to, frame });
    }

    fn arm_timer(&mut self, node: NodeId, kind: TimerKind, after: u64) {
        let gen = self.seq;
        self.armed.insert((node, kind), gen);
        self.push(self.now + after, Pending::Timer { node, kind, gen });
    }

    fn cancel_timer(&mut self, node: NodeId, kind: TimerKind) {
        self.armed.remove(&(node, kind));
    }

    fn deliver_app(&mut self, _node: NodeId, _event: AppEvent) {}
}

/// The captured corpus.
struct Corpus {
    layout: HierarchyLayout,
    cfg: ProtocolConfig,
    /// `(dense node index, input)` in the order the capture run applied
    /// them; replaying them in order on fresh nodes reproduces every state.
    inputs: Vec<(usize, Input)>,
    frames: Vec<(MsgLabel, Bytes)>,
}

/// Drive `sc` on the recording substrate for its whole duration.
fn capture(sc: &Scenario) -> Corpus {
    let layout = sc.layout();
    let indexer = layout.indexer();
    let mut nodes: Vec<NodeState> = indexer
        .iter()
        .map(|(_, id)| NodeState::from_layout(&layout, id, sc.cfg.clone()).expect("valid layout"))
        .collect();
    let mut sub = Capture::default();
    let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
    let mut inputs: Vec<(usize, Input)> = Vec::new();
    let mut sink = OutputSink::new();

    for c in &sc.crashes {
        sub.push(c.at, Pending::Crash { node: c.node });
    }
    for &(at, ap, event) in &sc.mh_schedule {
        sub.push(at, Pending::Mh { ap, event });
    }
    for q in &sc.queries {
        sub.push(q.at, Pending::Query { node: q.node, scope: q.scope });
    }
    let mut feed = |sub: &mut Capture, node: NodeId, input: Input| {
        let Some(idx) = indexer.index_of(node) else { return };
        let i = idx.as_usize();
        inputs.push((i, input.clone()));
        nodes[i].handle_into(input, &mut sink);
        apply_outputs(sub, layout.gid, node, &mut sink);
    };
    for (_, id) in indexer.iter() {
        feed(&mut sub, id, Input::Boot);
    }
    while let Some((&(at, seq), _)) = sub.queue.first_key_value() {
        if at > sc.duration {
            break;
        }
        let pending = sub.queue.remove(&(at, seq)).expect("peeked entry");
        sub.now = at;
        match pending {
            Pending::Frame { from, to, frame } if !crashed.contains(&to) => {
                let env = wire::decode(&frame).expect("captured frame decodes");
                feed(&mut sub, to, Input::Msg { from, msg: env.msg });
            }
            Pending::Timer { node, kind, gen }
                if !crashed.contains(&node) && sub.armed.get(&(node, kind)) == Some(&gen) =>
            {
                sub.armed.remove(&(node, kind));
                feed(&mut sub, node, Input::Timer(kind));
            }
            Pending::Mh { ap, event } if !crashed.contains(&ap) => {
                feed(&mut sub, ap, Input::Mh(event));
            }
            Pending::Query { node, scope } if !crashed.contains(&node) => {
                feed(&mut sub, node, Input::StartQuery { scope });
            }
            Pending::Crash { node } => {
                crashed.insert(node);
            }
            _ => {} // addressed to a crashed node, or a superseded timer
        }
    }
    Corpus { layout, cfg: sc.cfg.clone(), inputs, frames: sub.frames }
}

/// The corpus scenario: world 0 of `small_worlds` plus 1,000 join/leave
/// pairs and 100 global queries spread over its duration, so the `mh` and
/// `query` input kinds are priced from more than a handful of calls.
fn corpus_scenario(seed: u64) -> Scenario {
    let mut sc = crate::workloads::small_world(seed, 0);
    let layout = sc.layout();
    let crashed: BTreeSet<NodeId> = sc.crashes.iter().map(|c| c.node).collect();
    let aps: Vec<NodeId> = layout.aps().into_iter().filter(|ap| !crashed.contains(ap)).collect();
    let root =
        *layout.root_ring().nodes.iter().find(|n| !crashed.contains(n)).expect("one root survives");
    let span = sc.duration - 1_000;
    for i in 0..1_000u64 {
        let at = i * span / 1_000;
        let ap = aps[(i as usize * 7) % aps.len()];
        let guid = Guid(1_000_000 + i);
        sc = sc.join(at, ap, guid, Luid(1)).mh(at + 600, ap, MhEvent::Leave { guid });
    }
    for i in 0..100u64 {
        sc = sc.query(i * span / 100 + 50, root, QueryScope::Global);
    }
    sc
}

/// Cost of one `Instant::now()` call, subtracted from per-call timings.
fn clock_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Unit prices of every layer below `step()`, in nanoseconds per call.
pub struct Ledger {
    /// Per label; `None` when the corpus holds no such frame.
    encode_ns: [Option<f64>; MsgLabel::COUNT],
    decode_ns: [Option<f64>; MsgLabel::COUNT],
    frame_bytes: [Option<f64>; MsgLabel::COUNT],
    /// Corpus-wide means, the price of labels the corpus lacks.
    encode_mean: f64,
    decode_mean: f64,
    bytes_mean: f64,
    /// `handle_into` per input kind: msg, timer, mh, query.
    handle_ns: [f64; 4],
    outputs_per_input: f64,
    mq_push_ns: f64,
    obs_record_ns: f64,
    queue_push_ns: f64,
    queue_pop_ns: f64,
    queue_far_push_ns: f64,
    /// `lost` + `latency` per link class.
    sample_ns: [f64; LinkClass::COUNT],
    send_ns: f64,
}

impl Ledger {
    /// Capture the corpus and replay it through every layer, one span per
    /// replayed batch.
    pub fn measure(seed: u64, net: &NetConfig, rec: &mut Recorder) -> Ledger {
        let corpus = rec.leaf("corpus capture", || capture(&corpus_scenario(seed)));
        let (decode_ns, envelopes) = replay_decode(&corpus, rec);
        let encode_ns = replay_encode(&envelopes, rec);
        let mut frame_bytes = [None; MsgLabel::COUNT];
        let mut by_label: [Vec<usize>; MsgLabel::COUNT] = std::array::from_fn(|_| Vec::new());
        for (label, frame) in &corpus.frames {
            by_label[*label as usize].push(frame.len());
        }
        for (slot, sizes) in frame_bytes.iter_mut().zip(&by_label) {
            if !sizes.is_empty() {
                *slot = Some(sizes.iter().sum::<usize>() as f64 / sizes.len() as f64);
            }
        }
        let frames = corpus.frames.len() as f64;
        let mean = |per_label: &[Option<f64>; MsgLabel::COUNT]| {
            per_label
                .iter()
                .zip(&by_label)
                .filter_map(|(ns, sizes)| ns.map(|ns| ns * sizes.len() as f64))
                .sum::<f64>()
                / frames
        };
        let (handle_ns, outputs_per_input) = replay_handle(&corpus, rec);
        Ledger {
            encode_mean: mean(&encode_ns),
            decode_mean: mean(&decode_ns),
            bytes_mean: mean(&frame_bytes),
            encode_ns,
            decode_ns,
            frame_bytes,
            handle_ns,
            outputs_per_input,
            mq_push_ns: replay_mq(&envelopes, rec),
            obs_record_ns: replay_obs(rec),
            sample_ns: replay_network(net, rec),
            send_ns: replay_router(&corpus, rec),
            queue_push_ns: 0.0,
            queue_pop_ns: 0.0,
            queue_far_push_ns: 0.0,
        }
        .with_queue_prices(rec)
    }

    fn with_queue_prices(mut self, rec: &mut Recorder) -> Self {
        let cfg = ProtocolConfig::default();
        let mut sim = Simulation::full(1, 3, &cfg, NetConfig::unit(), 1);
        let outside = NodeId(u64::MAX);
        let n = 2 * BATCH;
        let per_op = |ns: u128| ns as f64 / n as f64;
        let t = Instant::now();
        rec.leaf("EventQueue::push", || {
            for i in 0..n {
                sim.crash_at(1 + (i as u64 * 37) % 1_000, outside);
            }
        });
        self.queue_push_ns = per_op(t.elapsed().as_nanos());
        let t = Instant::now();
        rec.leaf("EventQueue::pop", || {
            for _ in 0..n {
                black_box(sim.step());
            }
        });
        self.queue_pop_ns = per_op(t.elapsed().as_nanos());
        let t = Instant::now();
        rec.leaf("EventQueue::push (far heap)", || {
            for i in 0..n {
                sim.crash_at(2_000 + (i as u64 * 37) % 5_000, outside);
            }
        });
        self.queue_far_push_ns = per_op(t.elapsed().as_nanos());
        self
    }

    /// Mean of a per-label price weighted by the workload's label mix.
    fn weighted(
        per_label: &[Option<f64>; MsgLabel::COUNT],
        fallback: f64,
        mix: &[u64; MsgLabel::COUNT],
    ) -> f64 {
        let total: u64 = mix.iter().sum();
        if total == 0 {
            return fallback;
        }
        per_label.iter().zip(mix).map(|(p, &n)| p.unwrap_or(fallback) * n as f64).sum::<f64>()
            / total as f64
    }

    /// Write the unit prices, weighted by `counters`, into `out`; when the
    /// workload measured `step_ns`, also state how much of it the priced
    /// layers leave unexplained.
    pub fn report(&self, counters: &Counters, step_ns: Option<f64>, out: &mut Outcome) {
        let mix = &counters.by_label;
        let encode = Self::weighted(&self.encode_ns, self.encode_mean, mix);
        let decode = Self::weighted(&self.decode_ns, self.decode_mean, mix);
        out.layer("core.wire.encode_ns", encode);
        out.layer("core.wire.decode_ns", decode);
        out.layer("core.wire.frame_bytes", Self::weighted(&self.frame_bytes, self.bytes_mean, mix));
        for (label, enc, dec) in [
            (MsgLabel::Token, "core.wire.encode_ns.token", "core.wire.decode_ns.token"),
            (MsgLabel::HbUp, "core.wire.encode_ns.hb_up", "core.wire.decode_ns.hb_up"),
            (
                MsgLabel::NotifyParent,
                "core.wire.encode_ns.notify_parent",
                "core.wire.decode_ns.notify_parent",
            ),
        ] {
            out.layer(enc, self.encode_ns[label as usize].unwrap_or(0.0));
            out.layer(dec, self.decode_ns[label as usize].unwrap_or(0.0));
        }
        out.layer("core.protocol.handle_ns.msg", self.handle_ns[KIND_MSG]);
        out.layer("core.protocol.handle_ns.timer", self.handle_ns[KIND_TIMER]);
        out.layer("core.protocol.handle_ns.mh", self.handle_ns[KIND_MH]);
        out.layer("core.protocol.handle_ns.query", self.handle_ns[KIND_QUERY]);
        out.layer("core.protocol.outputs_per_input", self.outputs_per_input);
        out.layer("core.mq.push_ns", self.mq_push_ns);
        out.layer("core.obs.record_ns", self.obs_record_ns);
        out.layer("sim.queue.push_ns", self.queue_push_ns);
        out.layer("sim.queue.pop_ns", self.queue_pop_ns);
        out.layer("sim.queue.far_push_ns", self.queue_far_push_ns);
        out.layer("net.transport.send_ns", self.send_ns);

        let class_total: u64 = counters.by_class.iter().sum();
        let sample = if class_total == 0 {
            self.sample_ns.iter().sum::<f64>() / LinkClass::COUNT as f64
        } else {
            self.sample_ns.iter().zip(&counters.by_class).map(|(ns, &n)| ns * n as f64).sum::<f64>()
                / class_total as f64
        };
        out.layer("sim.network.sample_ns", sample);

        if let Some(step_ns) = step_ns {
            let classify = out.layers.get("sim.network.classify_ns").copied().unwrap_or(0.0);
            let events = counters.events as f64;
            let sent = counters.sent_total as f64;
            let delivered = sent - counters.lost as f64;
            let (mh, queries) = (counters.mh_events as f64, counters.queries as f64);
            let timers = (events
                - delivered
                - counters.stale_timer_skips as f64
                - mh
                - queries
                - counters.crashes as f64)
                .max(0.0);
            let priced = sent * (encode + sample + classify)
                + delivered * (decode + self.handle_ns[KIND_MSG])
                + timers * self.handle_ns[KIND_TIMER]
                + mh * self.handle_ns[KIND_MH]
                + queries * self.handle_ns[KIND_QUERY]
                + events * (self.queue_push_ns + self.queue_pop_ns)
                + counters.mq_inserted as f64 * self.mq_push_ns;
            out.layer("sim.sim.step_ns", step_ns);
            out.layer("sim.sim.residual_share", 1.0 - priced / (step_ns * events).max(1.0));
        }
    }
}

/// Decode every captured frame, one timed batch per label. Returns the
/// per-label price and the decoded envelopes (the encode corpus).
fn replay_decode(
    corpus: &Corpus,
    rec: &mut Recorder,
) -> ([Option<f64>; MsgLabel::COUNT], Vec<(MsgLabel, Envelope)>) {
    let mut by_label: [Vec<&Bytes>; MsgLabel::COUNT] = std::array::from_fn(|_| Vec::new());
    for (label, frame) in &corpus.frames {
        by_label[*label as usize].push(frame);
    }
    let passes = BATCH.div_ceil(corpus.frames.len().max(1)).max(3);
    let mut prices = [None; MsgLabel::COUNT];
    let span = rec.enter("wire::decode");
    for (slot, frames) in prices.iter_mut().zip(&by_label) {
        if frames.is_empty() {
            continue;
        }
        let t = Instant::now();
        for _ in 0..passes {
            for frame in frames {
                black_box(wire::decode(black_box(frame)).expect("captured frame decodes"));
            }
        }
        *slot = Some(t.elapsed().as_nanos() as f64 / (passes * frames.len()) as f64);
    }
    rec.exit(span);
    let envelopes = corpus
        .frames
        .iter()
        .map(|(label, frame)| (*label, wire::decode(frame).expect("captured frame decodes")))
        .collect();
    (prices, envelopes)
}

fn replay_encode(
    envelopes: &[(MsgLabel, Envelope)],
    rec: &mut Recorder,
) -> [Option<f64>; MsgLabel::COUNT] {
    let mut by_label: [Vec<&Envelope>; MsgLabel::COUNT] = std::array::from_fn(|_| Vec::new());
    for (label, env) in envelopes {
        by_label[*label as usize].push(env);
    }
    let passes = BATCH.div_ceil(envelopes.len().max(1)).max(3);
    let mut prices = [None; MsgLabel::COUNT];
    let span = rec.enter("wire::encode");
    for (slot, envs) in prices.iter_mut().zip(&by_label) {
        if envs.is_empty() {
            continue;
        }
        let t = Instant::now();
        for _ in 0..passes {
            for env in envs {
                black_box(wire::encode(black_box(env)));
            }
        }
        *slot = Some(t.elapsed().as_nanos() as f64 / (passes * envs.len()) as f64);
    }
    rec.exit(span);
    prices
}

/// Replay the input corpus, in order, on fresh node states, timing every
/// `handle_into` call. Returns ns per input kind and outputs per input.
fn replay_handle(corpus: &Corpus, rec: &mut Recorder) -> ([f64; 4], f64) {
    let clock = clock_cost_ns();
    let passes = BATCH.div_ceil(corpus.inputs.len().max(1)).max(3);
    let indexer = corpus.layout.indexer();
    let mut total_ns = [0f64; 4];
    let mut calls = [0u64; 4];
    let mut outputs = 0u64;
    let mut sink = OutputSink::new();
    for _ in 0..passes {
        let mut nodes: Vec<NodeState> = indexer
            .iter()
            .map(|(_, id)| {
                NodeState::from_layout(&corpus.layout, id, corpus.cfg.clone())
                    .expect("valid layout")
            })
            .collect();
        let inputs = corpus.inputs.clone();
        let span = rec.enter("NodeState::handle_into");
        for (i, input) in inputs {
            let kind = match input {
                Input::Msg { .. } => KIND_MSG,
                Input::Timer(_) | Input::Boot => KIND_TIMER,
                Input::Mh(_) => KIND_MH,
                Input::StartQuery { .. } => KIND_QUERY,
            };
            let t = Instant::now();
            nodes[i].handle_into(input, &mut sink);
            total_ns[kind] += t.elapsed().as_nanos() as f64 - clock;
            calls[kind] += 1;
            outputs += sink.len() as u64;
            sink.clear();
        }
        rec.exit(span);
    }
    let mut prices = [0f64; 4];
    for ((price, total), n) in prices.iter_mut().zip(total_ns).zip(calls) {
        *price = (total / n.max(1) as f64).max(0.0);
    }
    (prices, outputs as f64 / calls.iter().sum::<u64>().max(1) as f64)
}

/// `MessageQueue::push` (aggregating) over the change records the corpus
/// carried in `MqInsert` frames, drained every 64 pushes as a token would.
fn replay_mq(envelopes: &[(MsgLabel, Envelope)], rec: &mut Recorder) -> f64 {
    let records: Vec<ChangeRecord> = envelopes
        .iter()
        .filter_map(|(_, env)| match &env.msg {
            Msg::MqInsert { records, .. } => Some(records.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    if records.is_empty() {
        return 0.0;
    }
    let n = 2 * BATCH;
    let feed: Vec<ChangeRecord> = records.iter().cycle().take(n).cloned().collect();
    let mut mq = MessageQueue::new();
    let mut timed = std::time::Duration::ZERO;
    let span = rec.enter("MessageQueue::push");
    let mut feed = feed.into_iter().peekable();
    while feed.peek().is_some() {
        let t = Instant::now();
        for rec in feed.by_ref().take(64) {
            mq.push(rec, true);
        }
        timed += t.elapsed();
        black_box(mq.drain(usize::MAX));
    }
    rec.exit(span);
    timed.as_nanos() as f64 / n as f64
}

fn replay_obs(rec: &mut Recorder) -> f64 {
    let n = 5 * BATCH;
    let mut recorder = FlightRecorder::new(4_096);
    let t = Instant::now();
    rec.leaf("FlightRecorder::record", || {
        for i in 0..n as u64 {
            recorder.record(black_box(ObsRecord {
                at: i,
                node: NodeId(i % 97),
                ring: RingId(3),
                level: 1,
                kind: ObsKind::TokenGrant { seq: i },
            }));
        }
    });
    black_box(recorder.total());
    t.elapsed().as_nanos() as f64 / n as f64
}

fn replay_network(net: &NetConfig, rec: &mut Recorder) -> [f64; LinkClass::COUNT] {
    let model = NetworkModel::new(net.clone());
    let mut rng = SplitMix64::new(1);
    let n = 2 * BATCH;
    let mut prices = [0f64; LinkClass::COUNT];
    let span = rec.enter("NetworkModel::{lost, latency}");
    for class in LinkClass::ALL {
        let t = Instant::now();
        for _ in 0..n {
            black_box(model.lost(class, &mut rng));
            black_box(model.latency(class, &mut rng));
        }
        prices[class.index()] = t.elapsed().as_nanos() as f64 / n as f64;
    }
    rec.exit(span);
    prices
}

/// `Router::send_frame` into a registered inbox that is drained between
/// batches, so no send ever meets a full mailbox.
fn replay_router(corpus: &Corpus, rec: &mut Recorder) -> f64 {
    let Some((_, frame)) = corpus.frames.first() else { return 0.0 };
    let router = Router::new();
    let (tx, rx) = crossbeam::channel::bounded(2 * BATCH);
    for node in 0..16 {
        router.register(NodeId(node), tx.clone());
    }
    let mut timed = std::time::Duration::ZERO;
    let span = rec.enter("Router::send_frame");
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..BATCH as u64 {
            black_box(router.send_frame(NodeId(i % 16), NodeId((i + 1) % 16), frame.clone()));
        }
        timed += t.elapsed();
        while rx.try_recv().is_ok() {}
    }
    rec.exit(span);
    timed.as_nanos() as f64 / (3 * BATCH) as f64
}

/// `LinkClassMatrix::classify` over pseudo-random ordered pairs of a
/// layout's dense node indices.
pub fn classify_ns(matrix: &LinkClassMatrix, nodes: usize, rec: &mut Recorder) -> f64 {
    let mut rng = SplitMix64::new(2);
    let pairs: Vec<(NodeIdx, NodeIdx)> = (0..2 * BATCH)
        .map(|_| {
            let pick = |rng: &mut SplitMix64| NodeIdx(rng.range(0, nodes as u64) as u32);
            (pick(&mut rng), pick(&mut rng))
        })
        .collect();
    let t = Instant::now();
    rec.leaf("LinkClassMatrix::classify", || {
        for &(a, b) in &pairs {
            black_box(matrix.classify(Some(a), Some(b)));
        }
    });
    t.elapsed().as_nanos() as f64 / pairs.len() as f64
}
