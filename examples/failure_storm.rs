//! Failure storm: continuous-policy RGB under §5.2-style node faults —
//! token-retransmission detection, local repair by exclusion, leader
//! re-election, orphaned-ring re-attachment — with the Function-Well
//! report of the surviving hierarchy.
//!
//! ```text
//! cargo run --release --example failure_storm
//! ```

use rgb::core::hierarchy::assess;
use rgb::prelude::*;
use rgb::sim::{bernoulli_crashes, Simulation};

fn main() {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 10;
    cfg.token_retransmit_timeout = 40;
    cfg.token_retransmit_limit = 2;
    cfg.token_lost_timeout = 400;
    cfg.heartbeat_interval = 50;
    cfg.parent_timeout = 250;
    cfg.child_timeout = 250;

    let mut sim = Simulation::full(2, 5, &cfg, NetConfig::unit(), 99);
    sim.boot_all();
    let n_nodes = sim.layout.node_count();
    println!(
        "hierarchy: {} nodes in {} rings, continuous token policy",
        n_nodes,
        sim.layout.ring_count()
    );

    // Join a member per proxy, then let 8% of the NEs crash over a window.
    for (i, &ap) in sim.layout.aps().iter().enumerate() {
        sim.schedule_mh(i as u64, ap, MhEvent::Join { guid: Guid(i as u64), luid: Luid(1) });
    }
    // Find a seed whose Bernoulli draw actually produces a small storm.
    let crashes = (0..64)
        .map(|seed| bernoulli_crashes(&sim.layout, 0.10, (2_000, 4_000), seed))
        .find(|c| (2..=4).contains(&c.len()))
        .expect("some seed yields 2-4 crashes");
    println!("planned crashes: {}", crashes.len());
    for c in &crashes {
        sim.crash_at(c.at, c.node);
        println!("  t={} node {} dies", c.at, c.node);
    }
    sim.run_until(20_000);

    // Survivors must have excluded every crashed ring-mate.
    let mut repairs = 0usize;
    let mut leader_changes = 0usize;
    let mut reattached = 0usize;
    for (_, events) in sim.delivered_iter() {
        for (_, e) in events {
            match e {
                AppEvent::RingRepaired { .. } => repairs += 1,
                AppEvent::LeaderChanged { .. } => leader_changes += 1,
                AppEvent::Reattached { .. } => reattached += 1,
                _ => {}
            }
        }
    }
    println!("\nafter the storm (t={}):", sim.now);
    println!("  repairs (exclusions) observed : {repairs}");
    println!("  leader changes delivered      : {leader_changes}");
    println!("  rings re-attached             : {reattached}");

    let report = assess(&sim.layout, sim.crashed_set());
    println!(
        "  Function-Well report          : {} of {} rings shattered (>=2 faults)",
        report.bad_count(),
        report.rings_total
    );
    for k in 1..=3 {
        println!(
            "    Function-Well for k={k}? {}",
            if report.function_well(k) { "yes" } else { "no" }
        );
    }

    // The surviving protocol still works: a fresh join reaches agreement.
    let alive_ap =
        sim.layout.aps().into_iter().find(|&ap| !sim.is_crashed(ap)).expect("some proxy survived");
    sim.schedule_mh(10, alive_ap, MhEvent::Join { guid: Guid(9_999), luid: Luid(1) });
    sim.run_until(sim.now + 5_000);
    let witnesses = sim
        .alive_ring_nodes(sim.layout.placement(alive_ap).unwrap().ring)
        .into_iter()
        .filter(|&n| sim.member_at(n, Guid(9_999)))
        .count();
    println!("\npost-storm join witnessed by {witnesses} surviving ring nodes");
    assert!(witnesses >= 1, "the storm killed the protocol");
}
