//! Monte-Carlo validation of the §5.2 reliability model: sample node faults
//! directly (each NE independently faulty with probability `f`), apply the
//! paper's partition rules, and estimate the Function-Well probability with
//! a confidence interval. Cross-checks formulas (7)–(8) without trusting
//! their algebra.

use crate::hopcount::ring_count;
use rgb_core::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// Result of a Monte-Carlo estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McEstimate {
    /// Number of trials.
    pub trials: u64,
    /// Trials in which the hierarchy was Function-Well.
    pub successes: u64,
    /// Point estimate of the Function-Well probability.
    pub p_hat: f64,
    /// Standard error of the estimate.
    pub std_err: f64,
}

impl McEstimate {
    /// 95% normal-approximation confidence interval.
    pub fn ci95(&self) -> (f64, f64) {
        let delta = 1.96 * self.std_err;
        ((self.p_hat - delta).max(0.0), (self.p_hat + delta).min(1.0))
    }

    /// Whether `p` lies within the 99.9% (±3.29σ) band of the estimate —
    /// used by tests comparing against the closed form. The standard error
    /// under the *hypothesised* `p` is used as a floor so an all-successes
    /// sample (empirical σ = 0) is still judged fairly against `p` slightly
    /// below 1.
    pub fn consistent_with(&self, p: f64) -> bool {
        let hyp_se = (p * (1.0 - p) / self.trials as f64).sqrt();
        let se = self.std_err.max(hyp_se).max(1e-12);
        (self.p_hat - p).abs() <= 3.29 * se
    }
}

/// Estimate the hierarchy Function-Well probability for a full hierarchy of
/// height `h`, ring size `r`, per-node fault probability `f` and partition
/// budget `k`, over `trials` independent fault draws.
///
/// Implementation detail: a ring of `r` nodes fails to function well when
/// it draws ≥ 2 faults; ring fault counts are i.i.d. Binomial(r, f), so we
/// sample per-ring without materialising individual nodes. (The
/// node-resolved variant in `rgb-sim` exercises the protocol itself; this
/// estimator targets the probability model.)
pub fn estimate_hierarchy_fw(h: u32, r: u64, f: f64, k: u32, trials: u64, seed: u64) -> McEstimate {
    let tn = ring_count(h, r);
    let mut rng = SplitMix64::new(seed);
    let mut successes = 0u64;
    for _ in 0..trials {
        let mut bad_rings = 0u64;
        'rings: for _ in 0..tn {
            let mut faults = 0u32;
            for _ in 0..r {
                if rng.uniform() < f {
                    faults += 1;
                    if faults >= 2 {
                        bad_rings += 1;
                        if bad_rings >= k as u64 {
                            break 'rings; // already not function-well
                        }
                        continue 'rings;
                    }
                }
            }
        }
        if bad_rings < k as u64 {
            successes += 1;
        }
    }
    finish(trials, successes)
}

/// Estimate the single-ring Function-Well probability (formula 7 check).
pub fn estimate_ring_fw(r: u64, f: f64, trials: u64, seed: u64) -> McEstimate {
    let mut rng = SplitMix64::new(seed);
    let mut successes = 0u64;
    for _ in 0..trials {
        let faults = (0..r).filter(|_| rng.uniform() < f).count();
        if faults <= 1 {
            successes += 1;
        }
    }
    finish(trials, successes)
}

fn finish(trials: u64, successes: u64) -> McEstimate {
    let p_hat = successes as f64 / trials as f64;
    let std_err = (p_hat * (1.0 - p_hat) / trials as f64).sqrt();
    McEstimate { trials, successes, p_hat, std_err }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::{prob_fw_hierarchy, prob_fw_ring};

    #[test]
    fn ring_estimate_matches_formula_7() {
        for &(r, f) in &[(5u64, 0.02f64), (10, 0.05), (10, 0.001)] {
            let est = estimate_ring_fw(r, f, 200_000, 42);
            let truth = prob_fw_ring(r, f);
            assert!(
                est.consistent_with(truth),
                "ring r={r} f={f}: mc={} vs formula={truth} (σ={})",
                est.p_hat,
                est.std_err
            );
        }
    }

    #[test]
    fn hierarchy_estimate_matches_formula_8() {
        // Moderate sizes keep the test fast; experiment E4 sweeps the full grid.
        for &(h, r, f, k) in &[(3u32, 5u64, 0.005f64, 1u32), (3, 5, 0.02, 3), (2, 10, 0.01, 2)] {
            let est = estimate_hierarchy_fw(h, r, f, k, 100_000, 7);
            let truth = prob_fw_hierarchy(h, r, f, k);
            assert!(
                est.consistent_with(truth),
                "h={h} r={r} f={f} k={k}: mc={} vs formula={truth} (σ={})",
                est.p_hat,
                est.std_err
            );
        }
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let a = estimate_hierarchy_fw(3, 5, 0.1, 2, 10_000, 9);
        let b = estimate_hierarchy_fw(3, 5, 0.1, 2, 10_000, 9);
        assert_eq!(a, b);
        // At f = 10% the estimate is far from the 0/1 boundary, so two
        // different seeds virtually never agree on the exact success count.
        let c = estimate_hierarchy_fw(3, 5, 0.1, 2, 10_000, 10);
        assert_ne!(a.successes, c.successes);
    }

    #[test]
    fn success_counts_are_pinned_per_seed() {
        // Absolute pins of the sampled stream: a change to the generator,
        // its seeding or the draw order moves these counts even when every
        // estimate stays statistically consistent. The first case is the
        // (n = 1000, f = 2%, k = 3) cell of `experiments E4 --trials 20000`.
        for &(h, r, f, k, trials, seed, successes) in &[
            (3u32, 10u64, 0.02f64, 3u32, 20_000u64, 0xFEED + 3, 14_559u64),
            (3, 5, 0.1, 2, 10_000, 9, 2_777),
            (2, 10, 0.01, 2, 50_000, 7, 49_950),
        ] {
            let est = estimate_hierarchy_fw(h, r, f, k, trials, seed);
            assert_eq!(est.successes, successes, "h={h} r={r} f={f} k={k} seed={seed:#x}");
        }
        for &(r, f, trials, seed, successes) in &[
            (10u64, 0.05f64, 50_000u64, 42u64, 45_791u64),
            (5, 0.1, 10_000, 1, 9_116),
            (3, 0.2, 30_000, 0xFEED, 26_819),
        ] {
            let est = estimate_ring_fw(r, f, trials, seed);
            assert_eq!(est.successes, successes, "r={r} f={f} seed={seed:#x}");
        }
    }

    #[test]
    fn ci_is_well_formed() {
        let est = estimate_ring_fw(5, 0.1, 10_000, 1);
        let (lo, hi) = est.ci95();
        assert!(lo <= est.p_hat && est.p_hat <= hi);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn zero_fault_probability_always_succeeds() {
        let est = estimate_hierarchy_fw(3, 5, 0.0, 1, 1_000, 3);
        assert_eq!(est.successes, 1_000);
        assert_eq!(est.p_hat, 1.0);
    }
}
