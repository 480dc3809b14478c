//! Experiment E2 on single shapes: one simulated membership change
//! against the closed-form ring cost, formula (6).

use rgb::analysis::hcn_ring;
use rgb_bench::experiments::measure_change;
use rgb_sim::NetConfig;

#[test]
fn measured_ring_hops_track_formula_6() {
    // Small/medium Table I shapes (the 10k-AP row runs in the release-mode
    // binary; debug-mode tests stay below a second per shape).
    for &(h, r) in &[(2usize, 5usize), (3, 5), (2, 10)] {
        let cost = measure_change(h, r, NetConfig::instant(), 1);
        let analytic = hcn_ring(h as u32, r as u64);
        let tn: u64 = (0..h).map(|i| (r as u64).pow(i as u32)).sum();
        // token hops are exact; total proposal traffic within one extra
        // hop per ring (the on-demand leader relays) plus the wireless hop.
        assert_eq!(cost.token_hops, (r as u64) * tn, "h={h} r={r}");
        assert!(
            cost.proposal_hops >= analytic - tn && cost.proposal_hops <= analytic + 2 * tn + 2,
            "h={h} r={r}: measured {} vs analytic {analytic}",
            cost.proposal_hops
        );
    }
}

#[test]
fn measured_hops_scale_like_the_formula_across_sizes() {
    // Growth factor between consecutive shapes must match the analytic
    // growth factor within 10%.
    let a = measure_change(2, 5, NetConfig::instant(), 2).proposal_hops as f64;
    let b = measure_change(3, 5, NetConfig::instant(), 2).proposal_hops as f64;
    let measured_growth = b / a;
    let analytic_growth = hcn_ring(3, 5) as f64 / hcn_ring(2, 5) as f64;
    assert!(
        (measured_growth / analytic_growth - 1.0).abs() < 0.10,
        "growth {measured_growth} vs {analytic_growth}"
    );
}
