//! Property test for the per-node coordinates of [`LinkClassMatrix`]: they
//! must classify like the reference [`NetworkModel::classify`] on **every
//! ordered node pair** — exhaustively for all full `(h ≤ 3, r ≤ 4)`
//! layouts, on a structured sample of a 1,463-node layout, and
//! property-tested over random irregular custom layouts with sparse ids.

use proptest::prelude::*;
use rgb_core::prelude::*;
use rgb_core::topology::HierarchyLayout;
use rgb_sim::{LinkClassMatrix, NetConfig, NetworkModel};

/// Assert matrix ↔ reference agreement on every ordered pair of `layout`,
/// plus the unknown-id edge cases.
fn assert_matrix_agrees(layout: &HierarchyLayout) {
    let indexer = layout.indexer();
    let matrix = LinkClassMatrix::new(layout, &indexer);
    let reference = NetworkModel::new(NetConfig::default());
    let ids: Vec<NodeId> = layout.nodes.keys().copied().collect();
    for &from in &ids {
        let fi = indexer.index_of(from);
        assert!(fi.is_some(), "indexer covers {from}");
        for &to in &ids {
            let expect = reference.classify(layout, from, to);
            let got = matrix.classify(fi, indexer.index_of(to));
            assert_eq!(got, expect, "pair ({from}, {to}) in layout of {} nodes", ids.len());
        }
    }
    // Ids outside the layout classify as wide-area, like the reference.
    let ghost = NodeId(u64::MAX);
    assert_eq!(reference.classify(layout, ids[0], ghost), rgb_sim::LinkClass::WideArea);
    assert_eq!(matrix.classify(indexer.index_of(ids[0]), None), rgb_sim::LinkClass::WideArea);
    assert_eq!(matrix.classify(None, indexer.index_of(ids[0])), rgb_sim::LinkClass::WideArea);
}

#[test]
fn matrix_agrees_exhaustively_on_small_full_layouts() {
    for h in 1..=3usize {
        for r in 1..=4usize {
            let layout = HierarchySpec::new(h, r).build(GroupId(1)).unwrap();
            assert_matrix_agrees(&layout);
        }
    }
}

#[test]
fn matrix_agrees_on_a_1463_node_layout() {
    // (h=3, r=11) has 11 + 121 + 1331 = 1463 nodes; check agreement on a
    // structured sample of pairs (the exhaustive product would be 2M).
    let layout = HierarchySpec::new(3, 11).build(GroupId(1)).unwrap();
    let indexer = layout.indexer();
    let matrix = LinkClassMatrix::new(&layout, &indexer);
    let reference = NetworkModel::new(NetConfig::default());
    let ids: Vec<NodeId> = layout.nodes.keys().copied().collect();
    let sample: Vec<NodeId> = ids.iter().step_by(7).copied().collect();
    for &from in &sample {
        for &to in &sample {
            assert_eq!(
                matrix.classify(indexer.index_of(from), indexer.index_of(to)),
                reference.classify(&layout, from, to),
                "pair ({from}, {to})"
            );
        }
    }
    // Every structurally-distinct relation appears at least once: ring
    // mates, sponsor links both ways, and cross-subtree pairs.
    let ring = layout.rings_at(2).next().unwrap().clone();
    let sponsor = ring.parent_node.unwrap();
    for (a, b) in [
        (ring.nodes[0], ring.nodes[1]),
        (ring.nodes[0], sponsor),
        (sponsor, ring.nodes[0]),
        (ring.nodes[0], *ids.last().unwrap()),
    ] {
        assert_eq!(
            matrix.classify(indexer.index_of(a), indexer.index_of(b)),
            reference.classify(&layout, a, b)
        );
    }
}

/// Random irregular two-level custom layout with sparse, shuffled ids.
fn arb_custom_layout() -> impl Strategy<Value = HierarchyLayout> {
    // Root ring of `root` nodes; each root node sponsors one child ring of
    // 1..=4 nodes. Ids are spread out to force the indexer's sparse paths.
    (2usize..=4, proptest::collection::vec(1usize..=4, 2..5), 1u64..1_000).prop_map(
        |(root, child_sizes, id_stride)| {
            let mut next = 5u64;
            let mut alloc = |n: usize| -> Vec<NodeId> {
                (0..n)
                    .map(|_| {
                        let id = NodeId(next);
                        next += 1 + id_stride;
                        id
                    })
                    .collect()
            };
            let root_ids = alloc(root);
            let children: Vec<Vec<NodeId>> =
                child_sizes.iter().take(root).map(|&n| alloc(n)).collect();
            HierarchyLayout::custom(GroupId(1), vec![vec![root_ids], children])
                .expect("valid custom layout")
        },
    )
}

proptest! {
    #[test]
    fn matrix_agrees_on_random_irregular_layouts(layout in arb_custom_layout()) {
        assert_matrix_agrees(&layout);
    }
}
