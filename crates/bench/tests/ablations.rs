//! What the two ablation benches time must also hold: CI only compiles the
//! benches (`cargo bench --no-run`), so their correctness claims live here.

use rgb_bench::{bursty, churn_run};

#[test]
fn aggregation_executes_fewer_ops_and_never_adds_traffic() {
    let (msgs_on, ops_on, merged_on) = bursty(true);
    let (msgs_off, ops_off, merged_off) = bursty(false);
    assert!(merged_on > 0, "aggregation never fired on the bursty workload");
    assert_eq!(merged_off, 0, "raw queue must not aggregate");
    assert!(
        ops_on < ops_off,
        "aggregation on ({ops_on} ops) must execute fewer ops than off ({ops_off})"
    );
    assert!(msgs_on <= msgs_off, "aggregation must never increase traffic");
}

#[test]
fn rotating_and_static_holders_both_agree_on_every_member() {
    let (_, rotate_ok) = churn_run(true);
    let (_, static_ok) = churn_run(false);
    assert!(rotate_ok >= 40, "rotation failed to agree");
    assert!(static_ok >= 40, "static owner failed to agree");
}
