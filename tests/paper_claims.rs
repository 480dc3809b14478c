//! The paper's evidence as assertions. E1/E3/E5: every number the paper
//! prints in Table I, Table II, the abstract and the §5.2 conclusions,
//! checked against the closed forms. E2, E4, E6 and E8–E11: each
//! experiment's claim, asserted as an envelope over the very tables the
//! `experiments` binary prints (`rgb_bench::experiments`).

use rgb::analysis::reliability::{prob_fw_hierarchy_printed, PAPER_TABLE_II_PCT};
use rgb::analysis::tables::Table;
use rgb::analysis::{hcn_ring, hcn_tree, prob_fw_hierarchy, table_i, table_ii};
use rgb_bench::experiments::{e10, e11, e2, e4, e6, e8, e9};

#[test]
fn table_i_every_cell_exact() {
    // (n, h, r, HCN) — tree block then ring block, exactly as printed.
    let tree = [
        (25u64, 3u32, 5u64, 29u64),
        (125, 4, 5, 149),
        (625, 5, 5, 750),
        (100, 3, 10, 109),
        (1000, 4, 10, 1099),
        (10000, 5, 10, 11000),
    ];
    let ring = [
        (25u64, 2u32, 5u64, 35u64),
        (125, 3, 5, 185),
        (625, 4, 5, 935),
        (100, 2, 10, 120),
        (1000, 3, 10, 1220),
        (10000, 4, 10, 12220),
    ];
    for (n, h, r, want) in tree {
        assert_eq!(hcn_tree(h, r), want, "HCN_Tree(n={n})");
    }
    for (n, h, r, want) in ring {
        assert_eq!(hcn_ring(h, r), want, "HCN_Ring(n={n})");
    }
}

#[test]
fn table_i_generator_matches_paper_layout() {
    let rows = table_i();
    assert_eq!(rows.len(), 6);
    let tree: Vec<u64> = rows.iter().map(|r| r.hcn_tree).collect();
    let ring: Vec<u64> = rows.iter().map(|r| r.hcn_ring).collect();
    assert_eq!(tree, vec![29, 149, 750, 109, 1099, 11000]);
    assert_eq!(ring, vec![35, 185, 935, 120, 1220, 12220]);
}

#[test]
fn comparable_scalability_claim() {
    // "the scalability of a ring-based hierarchy is as good as that of a
    // tree-based hierarchy" — within a constant factor (max 1.25 on the
    // printed grid) and identical asymptotic growth (ratio shrinks toward
    // (r+1)/r as n grows at fixed r).
    for row in table_i() {
        let ratio = row.hcn_ring as f64 / row.hcn_tree as f64;
        assert!(ratio < 1.25, "n={}: ratio {ratio}", row.n);
    }
    let rows = table_i();
    let r10: Vec<f64> =
        rows.iter().filter(|r| r.r == 10).map(|r| r.hcn_ring as f64 / r.hcn_tree as f64).collect();
    assert!(r10.windows(2).all(|w| w[1] <= w[0] + 0.01), "ratio not settling: {r10:?}");
}

#[test]
fn table_ii_printed_cells_under_printed_arithmetic() {
    // All six k=1 cells reproduce exactly under the tn+1 arithmetic the
    // authors evidently used; every other cell is within 1.3 points of
    // formula (8) and the printed value is never *above* the exact one.
    let rows = table_ii();
    assert_eq!(rows.len(), PAPER_TABLE_II_PCT.len());
    for row in rows {
        let printed_pct = row.fw_printed * 100.0;
        let exact_pct = row.fw * 100.0;
        if row.k == 1 {
            assert!(
                (printed_pct - row.paper_pct).abs() < 0.0015,
                "k=1 cell n={} f={}: {printed_pct} vs paper {}",
                row.n,
                row.f,
                row.paper_pct
            );
        }
        assert!(
            (exact_pct - row.paper_pct).abs() <= 1.3,
            "cell n={} f={} k={}: exact {exact_pct} vs paper {}",
            row.n,
            row.f,
            row.k,
            row.paper_pct
        );
        assert!(exact_pct + 0.002 >= row.paper_pct, "paper value above exact model");
    }
}

#[test]
fn abstract_headline_claims() {
    // "with high probability of 99.500%, a ring-based hierarchy with up to
    // 1000 access proxies ... will not partition when node faulty
    // probability is bounded by 0.1%"
    let no_partition = prob_fw_hierarchy_printed(3, 10, 0.001, 1) * 100.0;
    assert!((no_partition - 99.500).abs() < 0.0015, "{no_partition}");
    // "if at most 3 partitions are allowed, then the Function-Well
    // probability of the hierarchy is 99.999%" — under the exact model the
    // k=3 probability is >= 99.996 (the abstract rounds upward).
    let k3 = prob_fw_hierarchy(3, 10, 0.001, 3) * 100.0;
    assert!(k3 >= 99.996, "{k3}");
}

#[test]
fn section_5_2_conclusions() {
    // (2): f = 0.5%, k = 3, 1000 APs → still function-well w.h.p.
    let c2 = prob_fw_hierarchy(3, 10, 0.005, 3) * 100.0;
    assert!(c2 >= 99.864, "{c2}");
    // (3): at f = 2% the small hierarchy holds up, the large one degrades.
    let small = prob_fw_hierarchy(3, 5, 0.02, 3) * 100.0;
    let large = prob_fw_hierarchy(3, 10, 0.02, 3) * 100.0;
    assert!(small > 99.0, "{small}");
    assert!((70.0..76.0).contains(&large), "{large}");
    assert!(small - large > 25.0, "degradation gap vanished");
}

/// The value in column `col` of the row whose `h` and `r` columns match.
fn at(t: &Table, h: f64, r: f64, col: &str) -> f64 {
    let (hs, rs, vs) = (t.column("h"), t.column("r"), t.column(col));
    let i = (0..vs.len()).find(|&i| hs[i] == h && rs[i] == r).expect("shape in table");
    vs[i]
}

#[test]
fn e2_measured_hops_track_table_i() {
    let report = e2();
    let t = &report.tables[0];
    let (n, r) = (t.column("n"), t.column("r"));
    let (tree_a, tree_m) = (t.column("tree analytic"), t.column("tree measured"));
    let (ring_a, ring_m) = (t.column("ring analytic"), t.column("ring measured"));
    let tokens = t.column("ring tokens");
    assert_eq!(n, [25.0, 125.0, 625.0, 100.0, 1000.0, 10000.0]);
    for i in 0..n.len() {
        // A full ring hierarchy over n = r^h APs has tn = (n-1)/(r-1) rings.
        let tn = (n[i] - 1.0) / (r[i] - 1.0);
        assert_eq!(tokens[i], r[i] * tn, "n={}: one token round per ring", n[i]);
        // Leader relays add at most one hop per ring, plus the wireless hop.
        let (lo, hi) = (ring_a[i] - tn, ring_a[i] + 2.0 * tn + 2.0);
        assert!((lo..=hi).contains(&ring_m[i]), "n={}: {} outside [{lo}, {hi}]", n[i], ring_m[i]);
        assert!(tree_m[i] <= tree_a[i], "n={}: tree measured above formula (3)", n[i]);
        assert!(ring_m[i] > tree_m[i], "n={}: ring cheaper than tree", n[i]);
    }
    for i in 1..n.len() {
        if r[i] == r[i - 1] {
            let (measured, analytic) = (ring_m[i] / ring_m[i - 1], ring_a[i] / ring_a[i - 1]);
            assert!(
                (measured / analytic - 1.0).abs() < 0.10,
                "n={}: growth {measured} vs formula (6) {analytic}",
                n[i]
            );
        }
    }
}

#[test]
fn e4_monte_carlo_agrees_with_formula_8_on_every_cell() {
    let report = e4(20_000);
    let agree = report.tables[0].column("MC~formula");
    assert_eq!(agree, [1.0; 18], "a Table II cell fell outside its 95% interval");
}

#[test]
fn e6_time_to_root_grows_with_depth_not_ring_size() {
    let report = e6();
    let t = &report.tables[0];
    let root = |h, r| at(t, h, r, "to-root (ticks)");
    assert!(root(2.0, 5.0) < root(3.0, 5.0) && root(3.0, 5.0) < root(4.0, 5.0));
    assert!(
        root(3.0, 10.0) <= root(3.0, 5.0),
        "a wider ring of equal depth reached the root later"
    );
    let hops = |h, r| at(t, h, r, "proposal hops");
    assert!(hops(3.0, 10.0) > 5.0 * hops(3.0, 5.0), "message cost must follow size");
}

#[test]
fn e8_shallow_shapes_reach_the_root_first_and_small_rings_agree_first() {
    let report = e8();
    let t = &report.tables[0];
    let (h, to_root) = (t.column("h"), t.column("to-root (ticks)"));
    let total = t.column("full agreement (ticks)");
    assert!(h.windows(2).all(|w| w[1] < w[0]), "rows run deep to shallow");
    assert!(to_root.windows(2).all(|w| w[1] < w[0]), "to-root {to_root:?} not falling with h");
    let widest = total[total.len() - 1];
    assert!(total[..total.len() - 1].iter().all(|&x| x < widest), "r=64 is not the slowest");
    for (hops, hcn) in t.column("hops").into_iter().zip(t.column("HCN_Ring")) {
        assert!((hcn..=hcn + 1.0).contains(&hops), "hops {hops} vs HCN_Ring {hcn}");
    }
}

#[test]
fn e9_ring_hierarchy_outlives_both_trees() {
    let report = e9(200);
    let [single, mc, protocol] = &report.tables[..] else { panic!("E9 prints three tables") };
    assert!(single.column("ring E[parts]").iter().all(|&p| p == 1.0));
    for col in ["tree-no-reps E[parts]", "tree-reps E[parts]"] {
        assert!(single.column(col).iter().all(|&p| p > 1.9), "{col}");
    }
    let no_reps = single.column("no-reps P(intact)");
    assert!(no_reps.iter().zip(single.column("reps P(intact)")).all(|(&a, b)| a >= b));
    let ring = mc.column("ring fw(%)");
    for col in ["tree-no-reps fw(%)", "tree-reps fw(%)"] {
        assert!(ring.iter().zip(mc.column(col)).all(|(&a, b)| a >= b), "ring below {col}");
    }
    assert!(protocol.column("root view agreement").iter().all(|&p| p == 100.0));
}

#[test]
fn e10_query_cost_orders_tms_ims_bms() {
    let report = e10();
    for (t, r) in report.tables.iter().zip([5.0, 10.0]) {
        assert!(t.column("members").iter().all(|&m| m == r * r * r), "query must return everyone");
        for col in ["messages", "latency (ticks)"] {
            let v = t.column(col);
            assert!(v[0] < v[1] && v[1] < v[2], "r={r}: {col} {v:?} not TMS < IMS(1) < BMS");
        }
        assert_eq!(t.column("responses"), [1.0, r, r * r]);
    }
}

#[test]
fn e11_fast_handoff_admits_before_slow() {
    let report = e11();
    let t = &report.tables[0];
    for (fast, slow) in t.column("fast (ticks)").into_iter().zip(t.column("slow (ticks)")) {
        assert!(fast < slow, "fast {fast} !< slow {slow}");
    }
}
