//! Ablation bench for design decision D2: holder rotation (Figure 3 lines
//! 21–23) against a static token owner, under the continuous policy.
//! Rotation spreads queue-drain opportunities around the ring; with a
//! static owner, changes queued at other nodes wait for the owner's rounds
//! and the owner becomes a hotspot. `tests/ablations.rs` checks both agree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rgb_bench::churn_run;
use std::hint::black_box;

fn bench_rotation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rotation");
    group.sample_size(10);
    for &rotate in &[true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if rotate { "rotate" } else { "static" }),
            &rotate,
            |b, &rotate| b.iter(|| black_box(churn_run(rotate))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rotation);
criterion_main!(benches);
