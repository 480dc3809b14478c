//! Global Function-Well assessment of a ring-based hierarchy under a fault
//! set — the whole-hierarchy view of the §5.2 model, applied by the
//! `failure_storm` example to a simulated run's crash set.

use crate::ids::RingId;
use crate::partition::{fault_count, hierarchy_function_well, ring_function_well, segments};
use crate::topology::HierarchyLayout;
use std::collections::BTreeSet;

/// Assessment of a hierarchy under a concrete fault set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionWellReport {
    /// Total logical rings (`tn`).
    pub rings_total: usize,
    /// Rings that do not function well (≥ 2 faults), with their fault and
    /// segment counts.
    pub bad_rings: Vec<BadRing>,
    /// Total faulty nodes across the hierarchy.
    pub total_faults: usize,
}

/// One ring that does not function well.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRing {
    /// The ring.
    pub ring: RingId,
    /// Faulty nodes on it.
    pub faults: usize,
    /// Alive segments it shattered into.
    pub segments: usize,
}

impl FunctionWellReport {
    /// Number of rings that do not function well.
    pub fn bad_count(&self) -> usize {
        self.bad_rings.len()
    }

    /// Paper rule: Function-Well for at most `k` partitions.
    pub fn function_well(&self, k: usize) -> bool {
        hierarchy_function_well(self.bad_count(), k)
    }
}

/// Assess `layout` under the fault set `faulty` according to the paper's
/// model (§5.2): single faults are locally repaired, rings with two or more
/// faults are partitioned.
pub fn assess(
    layout: &HierarchyLayout,
    faulty: &BTreeSet<crate::ids::NodeId>,
) -> FunctionWellReport {
    let mut bad_rings = Vec::new();
    let mut total_faults = 0usize;
    for ring in &layout.rings {
        let faults = fault_count(&ring.nodes, faulty);
        total_faults += faults;
        if !ring_function_well(&ring.nodes, faulty) {
            bad_rings.push(BadRing {
                ring: ring.id,
                faults,
                segments: segments(&ring.nodes, faulty).len(),
            });
        }
    }
    FunctionWellReport { rings_total: layout.rings.len(), bad_rings, total_faults }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GroupId, NodeId};
    use crate::topology::HierarchySpec;

    #[test]
    fn healthy_hierarchy_is_function_well_for_k1() {
        let layout = HierarchySpec::new(3, 3).build(GroupId(1)).unwrap();
        let report = assess(&layout, &BTreeSet::new());
        assert_eq!(report.bad_count(), 0);
        assert_eq!(report.rings_total, 13);
        assert!(report.function_well(1));
        assert_eq!(report.total_faults, 0);
    }

    #[test]
    fn single_fault_per_ring_is_repaired() {
        let layout = HierarchySpec::new(3, 3).build(GroupId(1)).unwrap();
        // one fault in the root ring, one in a bottom ring
        let mut faulty = BTreeSet::new();
        faulty.insert(layout.root_ring().nodes[0]);
        faulty.insert(*layout.rings_at(2).next().unwrap().nodes.first().unwrap());
        let report = assess(&layout, &faulty);
        assert_eq!(report.bad_count(), 0);
        assert!(report.function_well(1));
        assert_eq!(report.total_faults, 2);
    }

    #[test]
    fn two_faults_in_one_ring_partition_it() {
        let layout = HierarchySpec::new(3, 3).build(GroupId(1)).unwrap();
        let ring = layout.rings_at(2).next().unwrap();
        let faulty: BTreeSet<NodeId> = ring.nodes[..2].iter().copied().collect();
        let report = assess(&layout, &faulty);
        assert_eq!(report.bad_count(), 1);
        assert_eq!(report.bad_rings[0].ring, ring.id);
        assert_eq!(report.bad_rings[0].faults, 2);
        assert!(!report.function_well(1));
        assert!(report.function_well(2));
        assert!(report.function_well(3));
    }

    #[test]
    fn three_bad_rings_need_k4() {
        let layout = HierarchySpec::new(3, 3).build(GroupId(1)).unwrap();
        let mut faulty = BTreeSet::new();
        for ring in layout.rings_at(2).take(3) {
            faulty.insert(ring.nodes[0]);
            faulty.insert(ring.nodes[1]);
        }
        let report = assess(&layout, &faulty);
        assert_eq!(report.bad_count(), 3);
        assert!(!report.function_well(3));
        assert!(report.function_well(4));
    }
}
