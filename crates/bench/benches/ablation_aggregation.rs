//! Ablation bench for design decision D1: the self-aggregating message
//! queue, timed with aggregation on and off on [`rgb_bench::bursty`]'s
//! workload. What aggregation must buy — fewer ops executed, never more
//! traffic — is asserted in `tests/ablations.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rgb_bench::bursty;
use std::hint::black_box;

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_aggregation");
    group.sample_size(20);
    for &aggregate in &[true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if aggregate { "on" } else { "off" }),
            &aggregate,
            |b, &aggregate| b.iter(|| black_box(bursty(aggregate))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_aggregation);
criterion_main!(benches);
