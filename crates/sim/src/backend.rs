//! The unified run surface: one [`Backend`] choice for
//! [`Scenario::run_on`](crate::scenario::Scenario::run_on), whichever
//! engine runs the world:
//!
//! | backend | engine | world |
//! |---|---|---|
//! | [`Backend::Sim`] | [`crate::sim::Simulation`] | deterministic discrete-event |
//! | [`Backend::Par`] | [`crate::par::ParSimulation`] | same, sharded across threads |
//! | [`Backend::Live`] | a [`LiveRuntime`] (the `rgb-net` reactor) | wall-clock concurrency |
//!
//! The live world plugs in through the [`LiveRuntime`] trait rather than a
//! concrete type because `rgb-net` depends on this crate (scenarios are
//! defined here); the trait inverts that edge. `rgb_net::LiveConfig`
//! implements it, so `sc.run_on(Backend::Live(&live_config))` is the whole
//! story for callers that link both crates.

use crate::scenario::{Scenario, ScenarioError};
use rgb_core::prelude::SystemDigest;
use std::fmt;

/// A runtime that can replay a [`Scenario`] against real concurrency —
/// implemented by `rgb_net::LiveConfig` for the reactor worker pool.
///
/// The digest's `settled` flag must carry the runtime's convergence
/// verdict (`true` only when the run actually quiesced within its settle
/// budget), so quiescence-gated oracles never judge a cluster that was
/// still moving.
pub trait LiveRuntime {
    /// Deploy `scenario`, replay its timeline in wall-clock time, and
    /// collect the final system digest (the run's
    /// [`ScenarioOutcome`](crate::scenario::ScenarioOutcome) is its
    /// projection).
    fn run_live(&self, scenario: &Scenario) -> Result<SystemDigest, ScenarioError>;
}

/// Where [`Scenario::run_on`](crate::scenario::Scenario::run_on) executes.
#[derive(Clone, Copy)]
pub enum Backend<'a> {
    /// The sequential deterministic simulator.
    Sim,
    /// The sharded-parallel simulator with this many shards
    /// (trace-equivalent to [`Backend::Sim`], see [`crate::par`]).
    Par(usize),
    /// A live wall-clock runtime (the `rgb-net` reactor pool).
    Live(&'a dyn LiveRuntime),
}

impl fmt::Debug for Backend<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Sim => write!(f, "Sim"),
            Backend::Par(shards) => write!(f, "Par({shards})"),
            Backend::Live(_) => write!(f, "Live(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_debug_is_compact() {
        struct Never;
        impl LiveRuntime for Never {
            fn run_live(&self, _scenario: &Scenario) -> Result<SystemDigest, ScenarioError> {
                unreachable!("never run")
            }
        }
        assert_eq!(format!("{:?}", Backend::Sim), "Sim");
        assert_eq!(format!("{:?}", Backend::Par(4)), "Par(4)");
        assert_eq!(format!("{:?}", Backend::Live(&Never)), "Live(..)");
    }
}
