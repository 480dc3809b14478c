//! Trace equivalence of the observability layer itself: the sequential
//! and the sharded engine, run over production-shaped corpus presets with
//! flight recorders attached, must emit the **same multiset of typed
//! trace records** and merge to the **same per-ring-level latency
//! histograms**. The comparison is ordering-insensitive (both streams are
//! sorted) because par shards interleave emission order across mailboxes
//! — what must agree is what happened, to whom, at which tick, not which
//! shard wrote it down first.

use rgb_core::obs::{FlightRecorder, TraceSink};
use rgb_sim::presets;

/// Big enough to hold every record either engine emits for these presets
/// — eviction would make the comparison vacuous, so zero drops is
/// asserted, not assumed.
const CAP: usize = 1 << 16;

#[test]
fn seq_and_par_traces_agree_on_corpus_presets() {
    // diurnal_load_curve covers joins, handoffs, leaves, failure
    // detections, and queries; rolling_upgrade_churn adds crashes and the
    // repair records they trigger, on a three-level hierarchy. One preset
    // runs on an odd shard count, whose cuts fall mid-subtree.
    for (name, shards) in [("diurnal_load_curve", 3), ("rolling_upgrade_churn", 4)] {
        let sc = presets::by_name(name, 1).expect("registered preset");

        let mut seq = sc.try_build_sim().expect("preset validates");
        seq.enable_obs(Box::new(FlightRecorder::new(CAP)));
        seq.run_until(sc.duration);

        let mut par = sc.try_build_par(shards).expect("preset validates");
        par.enable_obs(|_| Box::new(FlightRecorder::new(CAP)) as Box<dyn TraceSink>);
        par.run_until(sc.duration);

        assert_eq!(seq.trace_dropped(), 0, "'{name}': seq recorder evicted");
        assert_eq!(par.trace_dropped(), 0, "'{name}': par recorders evicted");

        let mut a = seq.trace_snapshot();
        let mut b = par.trace_snapshot();
        a.sort_unstable();
        b.sort_unstable();
        assert!(!a.is_empty(), "'{name}': preset emitted no trace records");
        assert_eq!(
            a.len(),
            b.len(),
            "'{name}': record counts differ (seq {}, par {})",
            a.len(),
            b.len()
        );
        assert_eq!(a, b, "'{name}': sorted trace streams differ");

        // The merged shard histograms are the sequential histograms: one
        // latency surface, however the nodes were distributed.
        assert_eq!(
            seq.metrics.levels,
            par.level_latency(),
            "'{name}': per-ring-level latency surfaces differ"
        );
    }
}
