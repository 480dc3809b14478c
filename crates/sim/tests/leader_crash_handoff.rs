//! Regression: a bottom-ring **leader** crashes while a mobile-host
//! handoff into its ring is still in flight (the schedule shape a
//! randomized fault explorer is most likely to hit first, since it overlaps
//! §5.2 local repair with an unagreed membership change).
//!
//! The named scenario lives in [`Scenario::leader_crash_during_handoff`];
//! the live-substrate half of the assertion is in
//! `crates/net/tests/repro_replay.rs`, which replays the identical value.

use rgb_core::prelude::*;
use rgb_sim::Scenario;

#[test]
fn post_repair_ring_agreement_after_leader_crash_mid_handoff() {
    let sc = Scenario::leader_crash_during_handoff(1);
    let layout = sc.layout();
    let aps = layout.aps();
    let bottom_ring = layout.placement(aps[0]).unwrap().ring;

    // Preconditions the scenario name promises: the crashed node leads the
    // bottom ring the handoff lands in, and the crash follows the handoff.
    let leader = layout.ring(bottom_ring).unwrap().nodes.iter().copied().min().unwrap();
    assert_eq!(sc.crashes[0].node, leader, "scenario must crash the ring leader");
    let handoff_at = sc
        .mh_schedule
        .iter()
        .find(|(_, _, e)| matches!(e, MhEvent::HandoffIn { .. }))
        .map(|&(t, _, _)| t)
        .expect("scenario schedules a handoff");
    assert!(
        sc.crashes[0].at > handoff_at && sc.crashes[0].at < handoff_at + 50,
        "crash must land while the handoff is in flight"
    );

    let mut sim = sc.build_sim();
    sim.run_until(sc.duration);
    // The operational GUIDs a node reports.
    let view = |n: NodeId| sim.node(n).digest().members;

    // The dead leader was excluded from the ring by local repair.
    let alive_bottom: Vec<NodeId> =
        layout.ring(bottom_ring).unwrap().nodes.iter().copied().filter(|&n| n != leader).collect();
    for &n in &alive_bottom {
        let node = sim.node(n);
        assert!(!node.roster.contains(leader), "{n} still rosters the crashed leader");
    }

    // Post-repair agreement: the surviving bottom-ring nodes hold identical
    // views containing both members, with the handoff applied (GUID 1 now
    // registered at the second proxy).
    let expected = sc.expected_guids();
    assert_eq!(expected, [Guid(1), Guid(2)].into_iter().collect());
    let reference = view(alive_bottom[0]);
    assert_eq!(reference, expected, "bottom ring lost a member across the repair");
    for &n in &alive_bottom[1..] {
        assert_eq!(
            view(n),
            reference,
            "bottom-ring views diverge between {} and {n}",
            alive_bottom[0]
        );
    }
    let moved =
        sim.node(alive_bottom[0]).ring_members.get(Guid(1)).expect("GUID 1 survives the crash");
    assert_eq!(moved.ap, aps[1], "handoff to the second proxy was not applied");

    // And the root ring agrees on the global view (TMS store level).
    let root = layout.root_ring().nodes.clone();
    let root_ref = view(root[0]);
    assert_eq!(root_ref, expected, "root view lost a member across the repair");
    for &n in &root[1..] {
        assert_eq!(view(n), root_ref);
    }
}
