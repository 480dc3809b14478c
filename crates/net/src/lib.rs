//! # rgb-net — reactor-multiplexed live runtime for RGB
//!
//! Deploys a ring-based hierarchy as real concurrency: a small pool of
//! reactor workers ([`reactor`]) multiplexes thousands of sans-IO
//! `NodeState`s per thread off per-worker timer wheels, crossbeam-channel
//! transport carrying the binary wire format of `rgb-core::wire` with
//! bounded mailboxes and explicit backpressure ([`transport`]), and an
//! operator API over the running deployment ([`cluster`]). This is the
//! §4.3 claim — "the proposed protocol runs in a parallel and distributed
//! way" — at live-experiment scale: worker count, not node count, bounds
//! the thread budget.
//!
//! The runtime is the third implementation of `rgb_core`'s substrate layer
//! (after the sequential and the sharded simulator): protocol outputs flow
//! through the shared `rgb_core::substrate::apply_outputs` driver
//! (wire-encoding every send), and declarative `rgb_sim::Scenario`
//! experiments replay here unchanged through the unified run API —
//! `sc.run_on(Backend::Live(&live_config))`, with [`LiveConfig`]
//! implementing `rgb_sim::LiveRuntime` ([`scenario`]). The differential
//! tests compare the substrates' final views.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod error;
pub mod reactor;
pub mod scenario;
pub mod transport;

pub use cluster::Cluster;
pub use error::NetError;
pub use reactor::{ClusterStats, LiveConfig, NodeSnapshot};
pub use scenario::LiveEngine;
pub use transport::{Router, SendOutcome, ToWorker};
