//! # rgb-core — the RGB group membership protocol
//!
//! A from-scratch implementation of **RGB** ("a Ring-based hierarchy of
//! access proxies, access Gateways, and Border routers"), the scalable and
//! reliable group membership protocol for mobile Internet proposed by Wang,
//! Cao and Chan at ICPP 2004.
//!
//! The crate is **sans-IO**: every network entity is a deterministic state
//! machine ([`node::NodeState`]) consuming [`events::Input`]s and producing
//! [`events::Output`]s. The [`substrate`] module defines the uniform
//! execution boundary — a [`substrate::Substrate`] trait (clock, frame
//! transport, timers, app-event sink) plus the shared
//! [`substrate::apply_outputs`] driver that wire-encodes every send — and
//! the substrates implementing it live in sibling crates:
//!
//! * `rgb-sim` — a discrete-event mobile-Internet simulator (latency, loss,
//!   faults, mobility, metrics);
//! * `rgb-net` — a live reactor runtime (a small pool of worker threads,
//!   each multiplexing many entities off a timer wheel; crossbeam-channel
//!   transport, binary wire format from [`wire`]).
//!
//! ## Map from the paper
//!
//! | Paper concept (§)                  | Module |
//! |------------------------------------|--------|
//! | 4-tier architecture, Fig. 1–2      | [`ids`], [`topology`] |
//! | MH/NE/Token data structures (§4.2) | [`member`], [`node`], [`token`], [`mq`] |
//! | One-round token passing (§4.3)     | [`protocol`] |
//! | Membership-Query, TMS/BMS/IMS (§4.4) | [`query`] |
//! | Fast handoff (§1)                  | [`handoff`] |
//! | Fault model, local repair (§5.2)   | [`protocol`], [`partition`], [`hierarchy`] |
//! | Partition/Merge (future work, §6)  | [`partition`] |
//!
//! ## Quick start
//!
//! ```
//! use rgb_core::prelude::*;
//!
//! // A full hierarchy of height 2 with 3 nodes per ring: 9 access proxies.
//! let layout = HierarchySpec::new(2, 3).build(GroupId(1)).unwrap();
//! let mut net = Loopback::from_layout(&layout, &ProtocolConfig::default());
//! net.boot_all();
//!
//! // A mobile host joins at the first access proxy.
//! let ap = layout.aps()[0];
//! net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(42), luid: Luid(1) }));
//! assert!(net.run_until_quiet(1_000_000));
//!
//! // Every node of that proxy's ring has agreed on the member.
//! let ring = layout.placement(ap).unwrap().ring;
//! for spec in &layout.rings {
//!     if spec.id == ring {
//!         for &n in &spec.nodes {
//!             assert!(net.node(n).ring_members.contains_operational(Guid(42)));
//!         }
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod events;
pub mod faults;
pub mod handoff;
pub mod hierarchy;
pub mod host;
pub mod ids;
pub mod introspect;
pub mod member;
pub mod message;
pub mod mq;
pub mod nejoin;
pub mod node;
pub mod obs;
pub mod partition;
pub mod protocol;
pub mod query;
pub mod ring;
pub mod rng;
pub mod substrate;
pub mod testing;
pub mod token;
pub mod topology;
pub mod view;
pub mod wheel;
pub mod wire;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::config::{MembershipScheme, ProtocolConfig, TokenPolicy};
    pub use crate::error::RgbError;
    pub use crate::events::{AppEvent, Input, Output, TimerKind};
    pub use crate::faults::LinkPartition;
    pub use crate::host::{GroupHost, HostOutput};
    pub use crate::ids::{GroupId, Guid, Luid, NodeId, RingId, Tier};
    pub use crate::introspect::{StateDigest, SystemDigest};
    pub use crate::member::{MemberInfo, MemberList, MemberStatus};
    pub use crate::message::{
        ChangeId, ChangeOp, ChangeRecord, Envelope, MhEvent, Msg, MsgLabel, NotifyKind, OpKind,
        QueryId, QueryScope, RingSnapshot, StatusSummary,
    };
    pub use crate::mq::MessageQueue;
    pub use crate::node::{ChildLink, NodeState, NodeStats};
    pub use crate::obs::{
        FlightRecorder, Histogram, LevelHistograms, LevelLatency, NullSink, ObsKind, ObsRecord,
        TraceSink,
    };
    pub use crate::ring::RingRoster;
    pub use crate::substrate::{apply_outputs, OutputSink, Substrate};
    pub use crate::testing::Loopback;
    pub use crate::token::Token;
    pub use crate::topology::{
        HierarchyLayout, HierarchySpec, NodeIdx, NodeIndexer, NodePlacement, RingSpec,
    };
    pub use crate::view::{View, ViewId};
}
