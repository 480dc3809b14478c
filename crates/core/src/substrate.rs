//! The substrate layer: the uniform boundary between the sans-IO protocol
//! engine and whatever executes it.
//!
//! A [`crate::node::NodeState`] emits [`Output`]s; something must transport
//! the messages, fire the timers and hand application events to the local
//! app. That "something" — a discrete-event simulator, a live reactor
//! pool, a future socket deployment — is a [`Substrate`]. The
//! [`apply_outputs`] driver interprets a batch of outputs against a
//! substrate uniformly, so every execution backend applies protocol outputs
//! the *same way*, including wire-encoding each [`Output::Send`] into an
//! [`Envelope`] frame. Both shipped substrates therefore exercise
//! [`crate::wire`] end-to-end: what differs between them is only how frames
//! travel and how time passes.
//!
//! The companion [`OutputSink`] alias names the reusable output buffer used
//! with [`crate::node::NodeState::handle_into`]: hot loops keep one buffer
//! alive across inputs instead of allocating a fresh `Vec<Output>` per
//! input.
//!
//! ## Hot-path layout
//!
//! Frames are pooled, and still encoded and decoded once per delivery.
//! [`apply_outputs`] asks the substrate for a buffer
//! ([`Substrate::frame_buf`]), [`wire::encode_into`]s the envelope into it
//! and hands the frozen frame to [`Substrate::send_frame`]; a substrate
//! that owns its receive path returns each decoded frame to a [`FramePool`]
//! and serves `frame_buf` from it, so in steady state a send allocates
//! neither the byte buffer nor the `Arc` behind [`Bytes`]. A substrate that
//! does not care inherits the default (a fresh buffer per send).
//!
//! The other thing every substrate keeps per node is which of the timer
//! entries it queued are still live. [`TimerSet`] is that bookkeeping,
//! shared by the sequential simulator, the parallel simulator's shards and
//! the reactor's workers: generation-stamped slots stored inline in their
//! owner, so the arm-on-forward / cancel-on-ack pair of every token hop
//! allocates nothing and chases no pointer.

use crate::events::{AppEvent, Output, TimerKind};
use crate::ids::{GroupId, NodeId};
use crate::message::{Envelope, MsgLabel};
use crate::wire;
use bytes::{Bytes, BytesMut};

/// A reusable buffer of protocol outputs.
///
/// [`crate::node::NodeState::handle_into`] appends into one of these;
/// [`apply_outputs`] drains it. Keeping a single sink alive across the hot
/// loop means the per-input allocation disappears once the buffer has grown
/// to its working size.
pub type OutputSink = Vec<Output>;

/// Services an execution substrate provides to the protocol engine.
///
/// Implementations decide what a tick means (simulated or real time), how a
/// frame reaches its destination (event queue, channel, socket) and where
/// application events go (recorded vector, subscriber channel).
pub trait Substrate {
    /// Current time in protocol ticks.
    fn now(&self) -> u64;

    /// Transmit an encoded [`Envelope`] frame from `from` to `to`.
    ///
    /// `label` is the payload's [`crate::message::Msg::label_kind`], passed
    /// along so substrates can attribute traffic to message classes (a
    /// dense counter index, no string handling) without decoding the frame
    /// they are merely transporting.
    fn send_frame(&mut self, from: NodeId, to: NodeId, label: MsgLabel, frame: Bytes);

    /// Arm (or re-arm) `kind` for `node`, `after` ticks from now.
    fn arm_timer(&mut self, node: NodeId, kind: TimerKind, after: u64);

    /// Cancel `kind` for `node` (no-op if not armed).
    fn cancel_timer(&mut self, node: NodeId, kind: TimerKind);

    /// Deliver an application event raised at `node`.
    fn deliver_app(&mut self, node: NodeId, event: AppEvent);

    /// A buffer for [`apply_outputs`] to encode the next frame into; its
    /// contents are overwritten. The default allocates per frame; substrates
    /// with a [`FramePool`] hand out a recycled one.
    fn frame_buf(&mut self) -> BytesMut {
        BytesMut::new()
    }
}

/// A bounded free-list of frame buffers: what a substrate's receive path
/// returns after decoding a frame, its [`Substrate::frame_buf`] hands out
/// for the next send.
///
/// Both bounds are constants, not knobs: a pool fills up to the gap between
/// the peak and the current number of frames in flight, so a few dozen
/// buffers cover the steady state, while an unbounded pool would pin a
/// storm's peak buffer count (and its largest frames) for the rest of the
/// run.
#[derive(Debug, Default)]
pub struct FramePool {
    free: Vec<BytesMut>,
}

impl FramePool {
    /// Most buffers kept.
    pub const MAX_BUFFERS: usize = 64;
    /// Largest buffer capacity kept; bigger ones (snapshot-sized frames)
    /// are freed as before.
    pub const MAX_BUFFER_BYTES: usize = 512;

    /// A recycled buffer, or a new empty one when the pool has run dry.
    #[inline]
    pub fn get(&mut self) -> BytesMut {
        self.free.pop().unwrap_or_default()
    }

    /// Take back a frame that has been decoded. A frame still shared with a
    /// clone (a duplicated delivery whose twin is in flight) is simply
    /// dropped; whichever handle is decoded last is the unique one.
    #[inline]
    pub fn recycle(&mut self, frame: Bytes) {
        if self.free.len() >= Self::MAX_BUFFERS {
            return;
        }
        match frame.try_into_mut() {
            Ok(buf) if buf.capacity() <= Self::MAX_BUFFER_BYTES => self.free.push(buf),
            _ => {}
        }
    }

    /// The buffers currently pooled.
    pub fn buffers(&self) -> &[BytesMut] {
        &self.free
    }
}

/// One generation-stamped live timer of a node. A substrate's timer queue
/// may hold many entries for the same `(node, kind)`; only the one whose
/// generation matches the slot fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerSlot {
    kind: TimerKind,
    gen: u64,
}

/// Live timers a node holds inline; the rare node with more kinds armed at
/// once (a ring leader that also sponsors child rings, mid-round) spills.
const INLINE_TIMERS: usize = 5;

/// The live timers of one node — the bookkeeping behind
/// [`Substrate::arm_timer`] / [`Substrate::cancel_timer`] that all three
/// engines share: at most one slot per [`TimerKind`], stamped with the
/// generation of its latest arm. A substrate queues `(kind, gen)` entries
/// however it likes and never unqueues one; when an entry comes due,
/// [`TimerSet::fire`] says whether it is still live or was superseded by a
/// re-arm or a cancel.
///
/// The first five slots are stored in place, so arming, cancelling and
/// firing touch the owner's own cache lines and no heap block; the rare
/// node with more kinds armed at once spills into a `Vec`. Order carries no
/// meaning (kinds and generations are both unique within a set), so removal
/// is a swap-remove. The caller supplies generations and must not reuse one
/// within a set.
///
/// Declaration order is layout order (`repr(C)`): the count sits in front of
/// the slots it bounds, so a node with two or three timers reads the head of
/// the set and not its tail.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct TimerSet {
    len: u8,
    inline: [TimerSlot; INLINE_TIMERS],
    spill: Vec<TimerSlot>,
}

impl Default for TimerSet {
    fn default() -> Self {
        // Filler past `len` is never read.
        let filler = TimerSlot { kind: TimerKind::Heartbeat, gen: 0 };
        TimerSet { len: 0, inline: [filler; INLINE_TIMERS], spill: Vec::new() }
    }
}

impl TimerSet {
    /// Make `gen` the live generation of `kind` (re-arming supersedes the
    /// kind's previous generation).
    #[inline]
    pub fn arm(&mut self, kind: TimerKind, gen: u64) {
        let len = self.len as usize;
        let mut live = self.inline[..len].iter_mut().chain(&mut self.spill);
        match live.find(|s| s.kind == kind) {
            Some(slot) => slot.gen = gen,
            None if len < INLINE_TIMERS => {
                self.inline[len] = TimerSlot { kind, gen };
                self.len += 1;
            }
            None => self.spill.push(TimerSlot { kind, gen }),
        }
    }

    /// Drop the live timer of `kind`, if any: its queued entry goes stale.
    #[inline]
    pub fn cancel(&mut self, kind: TimerKind) {
        self.remove_where(|s| s.kind == kind);
    }

    /// A queued entry stamped `gen` came due: `true` (and the slot is
    /// consumed) when it is still some kind's live generation, `false` when
    /// a re-arm or cancel has superseded it.
    #[inline]
    pub fn fire(&mut self, gen: u64) -> bool {
        self.remove_where(|s| s.gen == gen)
    }

    /// Drop every live timer (the node crashed).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Live timers held.
    pub fn len(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    /// Whether no timer is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes this set occupies: itself plus whatever spilled.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.spill.len() * std::mem::size_of::<TimerSlot>()
    }

    fn remove_where(&mut self, pred: impl Fn(&TimerSlot) -> bool) -> bool {
        let len = self.len as usize;
        if let Some(pos) = self.inline[..len].iter().position(&pred) {
            // Refill the hole from the spill first, so the inline part stays
            // full for as long as anything is spilled.
            match self.spill.pop() {
                Some(slot) => self.inline[pos] = slot,
                None => {
                    self.inline[pos] = self.inline[len - 1];
                    self.len -= 1;
                }
            }
            return true;
        }
        match self.spill.iter().position(pred) {
            Some(pos) => {
                self.spill.swap_remove(pos);
                true
            }
            None => false,
        }
    }
}

/// Interpret a batch of protocol outputs against a substrate.
///
/// Drains `outs` (leaving the buffer empty and reusable) and applies each
/// output: sends are wire-encoded as `Envelope { gid, msg }` frames and
/// handed to [`Substrate::send_frame`]; timer operations and application
/// deliveries are forwarded verbatim. This is the *only* place outputs are
/// interpreted — substrates cannot drift apart in how they apply them.
pub fn apply_outputs<S: Substrate + ?Sized>(
    substrate: &mut S,
    gid: GroupId,
    node: NodeId,
    outs: &mut OutputSink,
) {
    for out in outs.drain(..) {
        match out {
            Output::Send { to, msg } => {
                let label = msg.label_kind();
                let mut buf = substrate.frame_buf();
                wire::encode_into(&Envelope { gid, msg }, &mut buf);
                substrate.send_frame(node, to, label, buf.freeze());
            }
            Output::SetTimer { kind, after } => substrate.arm_timer(node, kind, after),
            Output::CancelTimer { kind } => substrate.cancel_timer(node, kind),
            Output::Deliver(event) => substrate.deliver_app(node, event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RingId;
    use crate::message::Msg;

    #[derive(Default)]
    struct Recorder {
        frames: Vec<(NodeId, NodeId, MsgLabel, Bytes)>,
        armed: Vec<(NodeId, TimerKind, u64)>,
        cancelled: Vec<(NodeId, TimerKind)>,
        apps: Vec<(NodeId, AppEvent)>,
    }

    impl Substrate for Recorder {
        fn now(&self) -> u64 {
            0
        }
        fn send_frame(&mut self, from: NodeId, to: NodeId, label: MsgLabel, frame: Bytes) {
            self.frames.push((from, to, label, frame));
        }
        fn arm_timer(&mut self, node: NodeId, kind: TimerKind, after: u64) {
            self.armed.push((node, kind, after));
        }
        fn cancel_timer(&mut self, node: NodeId, kind: TimerKind) {
            self.cancelled.push((node, kind));
        }
        fn deliver_app(&mut self, node: NodeId, event: AppEvent) {
            self.apps.push((node, event));
        }
    }

    #[test]
    fn sends_are_wire_encoded_with_the_group_id() {
        let mut rec = Recorder::default();
        let msg = Msg::TokenAck { ring: RingId(3), seq: 17 };
        let mut outs = vec![Output::Send { to: NodeId(2), msg: msg.clone() }];
        apply_outputs(&mut rec, GroupId(9), NodeId(1), &mut outs);
        assert!(outs.is_empty(), "driver must drain the sink");
        let (from, to, label, frame) = rec.frames.pop().expect("one frame");
        assert_eq!((from, to, label), (NodeId(1), NodeId(2), MsgLabel::TokenAck));
        assert_eq!(label.as_str(), "token_ack");
        let env = wire::decode(&frame).expect("frame decodes");
        assert_eq!(env.gid, GroupId(9));
        assert_eq!(env.msg, msg);
    }

    #[test]
    fn timers_and_app_events_are_forwarded_verbatim() {
        let mut rec = Recorder::default();
        let mut outs = vec![
            Output::SetTimer { kind: TimerKind::Heartbeat, after: 25 },
            Output::CancelTimer { kind: TimerKind::TokenKick },
            Output::Deliver(AppEvent::ParentLost { ring: RingId(4) }),
        ];
        apply_outputs(&mut rec, GroupId(1), NodeId(7), &mut outs);
        assert_eq!(rec.armed, vec![(NodeId(7), TimerKind::Heartbeat, 25)]);
        assert_eq!(rec.cancelled, vec![(NodeId(7), TimerKind::TokenKick)]);
        assert_eq!(rec.apps.len(), 1);
        assert!(matches!(rec.apps[0], (NodeId(7), AppEvent::ParentLost { ring: RingId(4) })));
    }

    #[test]
    fn frame_pool_reuses_the_allocation_and_stays_bounded() {
        let env = Envelope { gid: GroupId(1), msg: Msg::TokenAck { ring: RingId(0), seq: 1 } };
        let mut pool = FramePool::default();
        let mut buf = pool.get();
        wire::encode_into(&env, &mut buf);
        let (at, cap) = (buf.as_ptr(), buf.capacity());
        pool.recycle(buf.freeze());
        let again = pool.get();
        assert_eq!((again.as_ptr(), again.capacity()), (at, cap), "same allocation handed back");
        assert!(pool.buffers().is_empty());

        // A frame whose twin is still alive is not reclaimed; the last
        // handle is.
        let frame = wire::encode(&env);
        let twin = frame.clone();
        pool.recycle(frame);
        assert!(pool.buffers().is_empty(), "shared frame must not be pooled");
        pool.recycle(twin);
        assert_eq!(pool.buffers().len(), 1);

        // Count and capacity bounds.
        for _ in 0..2 * FramePool::MAX_BUFFERS {
            pool.recycle(wire::encode(&env));
        }
        assert_eq!(pool.buffers().len(), FramePool::MAX_BUFFERS);
        let mut pool = FramePool::default();
        pool.recycle(Bytes::from(Vec::with_capacity(FramePool::MAX_BUFFER_BYTES + 1)));
        assert!(pool.buffers().is_empty(), "oversized buffer must not be pooled");
    }

    #[test]
    fn sink_is_reusable_across_batches() {
        let mut rec = Recorder::default();
        let mut sink: OutputSink = Vec::new();
        for seq in 0..3u64 {
            sink.push(Output::Send { to: NodeId(2), msg: Msg::TokenAck { ring: RingId(0), seq } });
            apply_outputs(&mut rec, GroupId(1), NodeId(1), &mut sink);
            assert!(sink.is_empty());
        }
        assert_eq!(rec.frames.len(), 3);
    }

    /// The plain `Vec<TimerSlot>` the simulation engines used to keep per node.
    #[derive(Default)]
    struct ModelTimers(Vec<TimerSlot>);

    impl ModelTimers {
        fn arm(&mut self, kind: TimerKind, gen: u64) {
            match self.0.iter_mut().find(|s| s.kind == kind) {
                Some(slot) => slot.gen = gen,
                None => self.0.push(TimerSlot { kind, gen }),
            }
        }
        fn cancel(&mut self, kind: TimerKind) {
            if let Some(pos) = self.0.iter().position(|s| s.kind == kind) {
                self.0.swap_remove(pos);
            }
        }
        fn fire(&mut self, gen: u64) -> bool {
            match self.0.iter().position(|s| s.gen == gen) {
                Some(pos) => {
                    self.0.swap_remove(pos);
                    true
                }
                None => false,
            }
        }
    }

    proptest::proptest! {
        /// The inline timer set gives the verdicts of the plain vector it
        /// replaced — same fire/stale answer at every step, same live set —
        /// over sequences that arm more kinds than fit inline.
        #[test]
        fn timer_set_matches_the_vec_model(
            ops in proptest::collection::vec((0u8..8, 0usize..9, 0usize..64), 0..200),
        ) {
            use proptest::prelude::*;
            let kinds: Vec<TimerKind> = (0..3)
                .map(|seq| TimerKind::TokenRetransmit { seq })
                .chain((0..2).map(|r| TimerKind::ChildTimeout { ring: RingId(r) }))
                .chain([
                    TimerKind::TokenKick,
                    TimerKind::TokenLost,
                    TimerKind::Heartbeat,
                    TimerKind::ParentTimeout,
                ])
                .collect();
            prop_assert!(kinds.len() > INLINE_TIMERS);
            let (mut set, mut model) = (TimerSet::default(), ModelTimers::default());
            let mut next_gen = 0u64;
            for (op, kind, pick) in ops {
                match op {
                    // Arming dominates, so the set spills and drains again.
                    0..=3 => {
                        next_gen += 1;
                        set.arm(kinds[kind], next_gen);
                        model.arm(kinds[kind], next_gen);
                    }
                    4 => {
                        set.cancel(kinds[kind]);
                        model.cancel(kinds[kind]);
                    }
                    // Fire any generation issued so far: live, superseded,
                    // cancelled or already fired.
                    5 | 6 => {
                        let gen = 1 + pick as u64 % next_gen.max(1);
                        prop_assert_eq!(set.fire(gen), model.fire(gen), "fire({})", gen);
                    }
                    _ => {
                        if pick < 4 {
                            set.clear();
                            model.0.clear();
                        }
                    }
                }
                prop_assert_eq!(set.len(), model.0.len());
                let mut live: Vec<TimerSlot> =
                    set.inline[..set.len as usize].iter().chain(&set.spill).copied().collect();
                live.sort_by_key(|s| s.gen);
                model.0.sort_by_key(|s| s.gen);
                prop_assert_eq!(live, model.0.clone());
            }
        }
    }
}
