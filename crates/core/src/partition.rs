//! The paper's ring fault/partition model (§5.2) and the
//! Membership-Partition/Merge extension sketched as future work in §6.
//!
//! Model rules:
//!
//! * a single node fault in a logical ring is detected by token
//!   retransmission and locally repaired by excluding the faulty node — the
//!   ring still *functions well*;
//! * two or more faults partition the ring into *segments* (maximal runs of
//!   alive nodes between faulty ones), which "will merge with other
//!   partitions later";
//! * the hierarchy is **Function-Well for k** when fewer than `k` rings fail
//!   to function well (formula (8) sums `i = 0 .. k-1` bad rings).
//!
//! These pure functions back [`crate::hierarchy::assess`] (which the
//! `failure_storm` example applies to a simulated run's crash set) and the
//! node-resolved Monte-Carlo of `rgb_baselines::reliability`. The Table II
//! estimator in `rgb_analysis::montecarlo` does not call them: it samples
//! per-ring fault counts and applies the same "≥ 2 faults" rule itself.

use crate::ids::NodeId;
use std::collections::BTreeSet;

/// Maximal runs of alive nodes between faulty positions, in ring order.
/// A fully-alive ring is one segment; a fully-faulty ring is zero segments.
pub fn segments(nodes: &[NodeId], faulty: &BTreeSet<NodeId>) -> Vec<Vec<NodeId>> {
    let n = nodes.len();
    if n == 0 {
        return Vec::new();
    }
    let alive: Vec<bool> = nodes.iter().map(|n| !faulty.contains(n)).collect();
    if alive.iter().all(|&a| a) {
        return vec![nodes.to_vec()];
    }
    if alive.iter().all(|&a| !a) {
        return Vec::new();
    }
    // Start scanning right after a faulty node so segments never wrap.
    let start = (0..n).find(|&i| !alive[i]).expect("some faulty") + 1;
    let mut segs: Vec<Vec<NodeId>> = Vec::new();
    let mut cur: Vec<NodeId> = Vec::new();
    for off in 0..n {
        let i = (start + off) % n;
        if alive[i] {
            cur.push(nodes[i]);
        } else if !cur.is_empty() {
            segs.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        segs.push(cur);
    }
    segs
}

/// Number of faulty nodes on the ring.
pub fn fault_count(nodes: &[NodeId], faulty: &BTreeSet<NodeId>) -> usize {
    nodes.iter().filter(|n| faulty.contains(n)).count()
}

/// Paper rule: the ring functions well iff it has at most one fault
/// (formula (7) sums `i = 0..=1` faults).
pub fn ring_function_well(nodes: &[NodeId], faulty: &BTreeSet<NodeId>) -> bool {
    fault_count(nodes, faulty) <= 1
}

/// Paper rule: the hierarchy is Function-Well for `k` iff fewer than `k`
/// rings do not function well (formula (8)).
pub fn hierarchy_function_well(bad_rings: usize, k: usize) -> bool {
    bad_rings < k
}

/// Membership-Merge: re-form a partitioned ring from its alive nodes,
/// preserving ring order. The new leader is the minimum id, consistent with
/// the protocol's deterministic election.
pub fn merged_ring(nodes: &[NodeId], faulty: &BTreeSet<NodeId>) -> Vec<NodeId> {
    nodes.iter().copied().filter(|n| !faulty.contains(n)).collect()
}

/// Merge several segments (e.g. the partitions that re-discovered each
/// other) into one ring roster: concatenate in order of each segment's
/// minimum id, dropping duplicates.
pub fn merge_segments(segments: &[Vec<NodeId>]) -> Vec<NodeId> {
    let mut ordered: Vec<&Vec<NodeId>> = segments.iter().filter(|s| !s.is_empty()).collect();
    ordered.sort_by_key(|s| s.iter().min().copied());
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for seg in ordered {
        for &n in seg {
            if seen.insert(n) {
                out.push(n);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    fn fset(v: &[u64]) -> BTreeSet<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn no_faults_single_segment() {
        let segs = segments(&ids(&[1, 2, 3, 4]), &fset(&[]));
        assert_eq!(segs, vec![ids(&[1, 2, 3, 4])]);
    }

    #[test]
    fn one_fault_single_segment() {
        let segs = segments(&ids(&[1, 2, 3, 4]), &fset(&[2]));
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0], ids(&[3, 4, 1]));
    }

    #[test]
    fn two_faults_two_segments() {
        let segs = segments(&ids(&[1, 2, 3, 4, 5, 6]), &fset(&[2, 5]));
        assert_eq!(segs.len(), 2);
        // segments never wrap across a faulty node
        assert_eq!(segs[0], ids(&[3, 4]));
        assert_eq!(segs[1], ids(&[6, 1]));
    }

    #[test]
    fn adjacent_faults_merge_gap() {
        let segs = segments(&ids(&[1, 2, 3, 4]), &fset(&[1, 2]));
        assert_eq!(segs, vec![ids(&[3, 4])]);
    }

    #[test]
    fn all_faulty_no_segments() {
        assert!(segments(&ids(&[1, 2]), &fset(&[1, 2])).is_empty());
        assert!(segments(&[], &fset(&[])).is_empty());
    }

    #[test]
    fn function_well_rules() {
        let nodes = ids(&[1, 2, 3, 4, 5]);
        assert!(ring_function_well(&nodes, &fset(&[])));
        assert!(ring_function_well(&nodes, &fset(&[3])));
        assert!(!ring_function_well(&nodes, &fset(&[3, 4])));
        assert_eq!(fault_count(&nodes, &fset(&[3, 4, 99])), 2);
    }

    #[test]
    fn hierarchy_function_well_thresholds() {
        // k=1: no bad ring tolerated
        assert!(hierarchy_function_well(0, 1));
        assert!(!hierarchy_function_well(1, 1));
        // k=3: up to two bad rings
        assert!(hierarchy_function_well(2, 3));
        assert!(!hierarchy_function_well(3, 3));
    }

    #[test]
    fn merged_ring_preserves_order() {
        assert_eq!(merged_ring(&ids(&[5, 1, 4, 2]), &fset(&[1, 2])), ids(&[5, 4]));
    }

    #[test]
    fn merge_segments_orders_by_min_and_dedups() {
        let merged = merge_segments(&[ids(&[7, 8]), ids(&[2, 3]), ids(&[3, 9])]);
        assert_eq!(merged, ids(&[2, 3, 9, 7, 8]));
        assert!(merge_segments(&[]).is_empty());
    }
}
