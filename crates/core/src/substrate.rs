//! The substrate layer: the uniform boundary between the sans-IO protocol
//! engine and whatever executes it.
//!
//! A [`crate::node::NodeState`] emits [`Output`]s; something must transport
//! the messages, fire the timers and hand application events to the local
//! app. That "something" — a discrete-event simulator, a thread-per-node
//! live runtime, a future socket deployment — is a [`Substrate`]. The
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
}
