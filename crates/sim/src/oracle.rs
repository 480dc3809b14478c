//! Global invariant checks over a simulation — the things the protocol
//! promises (§4.3 consistency) asserted from the outside.

use crate::sim::Simulation;
use std::fmt::Write as _;

/// Check ring-level agreement: at quiescence, every pair of alive nodes of
/// the same ring with the same epoch must hold identical ring membership,
/// and all alive nodes of a ring must be at the same epoch.
///
/// Membership here is the full `MemberList`: every entry's status and
/// access-proxy location, not only who is operational. No oracle over
/// `SystemDigest` (`crate::explore::oracle`) can see those fields, since a
/// digest's `members` holds only operational GUIDs, so this check is not a
/// second copy of one of them.
///
/// Returns a human-readable violation description, or `Ok(())`.
pub fn check_ring_consistency(sim: &Simulation) -> Result<(), String> {
    for ring in &sim.layout.rings {
        let alive = sim.alive_ring_nodes(ring.id);
        let Some(&first) = alive.first() else { continue };
        let reference = sim.node(first);
        for &n in &alive[1..] {
            let node = sim.node(n);
            if node.epoch != reference.epoch {
                let mut msg = String::new();
                let _ = write!(
                    msg,
                    "ring {}: epoch mismatch {}@{} vs {}@{}",
                    ring.id, reference.epoch, first, node.epoch, n
                );
                return Err(msg);
            }
            if node.ring_members != reference.ring_members {
                return Err(format!(
                    "ring {}: membership mismatch between {first} and {n}",
                    ring.id
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use rgb_core::prelude::*;

    #[test]
    fn consistency_holds_after_churn() {
        let mut sim = Simulation::full(3, 3, &ProtocolConfig::default(), NetConfig::default(), 2);
        sim.boot_all();
        for (i, &ap) in sim.layout.aps().iter().enumerate() {
            sim.schedule_mh(i as u64, ap, MhEvent::Join { guid: Guid(i as u64), luid: Luid(1) });
            if i % 2 == 0 {
                sim.schedule_mh(100 + i as u64, ap, MhEvent::Leave { guid: Guid(i as u64) });
            }
        }
        assert!(sim.run_until_quiet(50_000_000));
        check_ring_consistency(&sim).unwrap();
    }
}
