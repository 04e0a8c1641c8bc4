//! Experiment E10 (Criterion): the paper's step-3 ablation — maintaining
//! the same view with inferred-schema property push-down vs carrying
//! whole property maps through the dataflow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgq_algebra::pipeline::CompileOptions;
use pgq_algebra::SchemaMode;
use pgq_core::GraphEngine;
use pgq_ivm::RegisterOptions;
use pgq_workloads::social::{generate_social, queries as sq, SocialParams};

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pushdown");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(2500));
    let mut net = generate_social(SocialParams::scale(0.25, 42));
    let stream = net.update_stream(50, (2, 0, 2, 0));
    for (label, mode) in [
        ("pushdown", SchemaMode::Inferred),
        ("carry_maps", SchemaMode::CarryMaps),
    ] {
        let options = CompileOptions {
            schema_mode: mode,
            ..CompileOptions::default()
        };
        let mut engine = GraphEngine::from_graph(net.graph.clone());
        engine
            .register_view_with(
                "threads",
                sq::SAME_LANG_THREAD,
                options,
                RegisterOptions::default(),
            )
            .unwrap();
        group.bench_with_input(BenchmarkId::new("maintain", label), &stream, |b, stream| {
            b.iter_batched(
                || engine.clone(),
                |mut e| {
                    for tx in stream {
                        e.apply(tx).unwrap();
                    }
                    e
                },
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("build", label), &net.graph, |b, graph| {
            b.iter_batched(
                || GraphEngine::from_graph(graph.clone()),
                |mut e| {
                    e.register_view_with(
                        "threads",
                        sq::SAME_LANG_THREAD,
                        options,
                        RegisterOptions::default(),
                    )
                    .unwrap();
                    e
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
