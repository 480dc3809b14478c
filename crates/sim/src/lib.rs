//! # rgb-sim — discrete-event mobile-Internet simulator for RGB
//!
//! This crate is the experimental substrate the paper never had: a seeded,
//! fully deterministic discrete-event simulator that drives the sans-IO
//! protocol engines of `rgb-core` over a modelled mobile Internet —
//! per-link-class latency and loss ([`network`]), node-fault injection
//! following the §5.2 model ([`fault`]), mobile-host mobility with
//! cell-to-cell handoffs ([`mobility`]), Poisson churn ([`workload`]) — and
//! measures everything ([`metrics`]), with global invariant checks
//! ([`oracle`]).
//!
//! The simulator is one implementation of `rgb_core`'s substrate layer
//! (`rgb_core::substrate::Substrate`): every delivery is wire-encoded by
//! the shared `apply_outputs` driver and decoded on arrival, so the binary
//! codec is exercised end-to-end in the simulated world too. Whole
//! experiments are described declaratively as [`scenario::Scenario`]
//! values and run through one API —
//! [`Scenario::run_on`](scenario::Scenario::run_on) with a [`Backend`] —
//! on the sequential simulator, the sharded-parallel simulator, or the
//! live reactor runtime (`rgb-net`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod engine;
pub mod explore;
pub mod fault;
pub mod metrics;
pub mod mobility;
pub mod network;
pub mod obs;
pub mod oracle;
pub mod par;
pub mod presets;
mod queue;
pub mod rng;
pub mod scenario;
pub mod sim;
pub mod workload;
mod world;

pub use backend::{Backend, LiveRuntime};
pub use engine::{Engine, EngineCounters};
pub use explore::{Exploration, Explorer, FoundViolation, Oracle, ScenarioGen, Violation};
pub use fault::{bernoulli_crashes, crash_in_ring, PlannedCrash};
pub use metrics::{Histogram, Metrics, MetricsSnapshot, ParStats, ShardLoad};
pub use mobility::{MobilityModel, TimedEvent};
pub use network::{LatencyBand, LinkClass, LinkClassMatrix, NetConfig, NetworkModel};
pub use obs::{obs_json, prometheus_text, shard_loads_json, ObsReport, Timeline, TimelineEntry};
pub use oracle::check_ring_consistency;
pub use par::ParSimulation;
pub use rng::SplitMix64;
pub use scenario::{operational_guids, Scenario, ScenarioError, ScenarioOutcome, TimedQuery};
pub use sim::{MemoryStats, Simulation};
pub use workload::{churn, expected_members, ChurnParams};
