//! Durability (Criterion): what a snapshot costs and what it buys. The
//! image is graph + view catalog, so recovery has one path — decode,
//! restore the graph, register each join-heavy view once — and the tick
//! is one `engine.snapshot()` with those views standing. The durable
//! image lives on an in-memory Vfs so host disk never enters the
//! measurement. See `report.rs` for the certified `recovery_*` /
//! `snapshot_tick_*` numbers.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgq_bench::durable_social_image;
use pgq_core::GraphEngine;

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(2500));
    for (tag, sf) in [("s", 0.1), ("m", 0.3)] {
        let vfs = Arc::new(durable_social_image(sf).vfs());
        group.bench_function(BenchmarkId::new("open", tag), |b| {
            b.iter(|| criterion::black_box(GraphEngine::open_durable_with(vfs.clone()).unwrap()))
        });
        let mut engine = GraphEngine::open_durable_with(vfs.clone()).unwrap();
        group.bench_function(BenchmarkId::new("snapshot_tick", tag), |b| {
            b.iter(|| engine.snapshot().unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
