//! planner (Criterion): per-transaction maintenance cost on the skewed
//! hub fan-out workload, cost-based join order vs the syntactic order
//! (the same query registered with the planner disabled).
//!
//! Series:
//! * `planned/<query>` — `GraphEngine::register_view` (cost-based
//!   join order from the live cardinality catalog);
//! * `syntactic/<query>` — registered with `RegisterOptions { plan:
//!   false, .. }` (the written order, the pre-planner behaviour).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgq_algebra::CompileOptions;
use pgq_bench::unplanned;
use pgq_core::GraphEngine;
use pgq_workloads::hub::{generate_hub, queries as hq, HubParams};

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(2000));

    let mut net = generate_hub(HubParams::default());
    let stream = net.update_stream(50);

    for (name, q) in [
        ("rare_topic_fans", hq::RARE_TOPIC_FANS),
        ("rare_cat_fans", hq::RARE_CAT_FANS),
    ] {
        for (series, planned) in [("planned", true), ("syntactic", false)] {
            let mut engine = GraphEngine::from_graph(net.graph.clone());
            if planned {
                engine.register_view("v", q).unwrap();
            } else {
                engine
                    .register_view_with("v", q, CompileOptions::default(), unplanned())
                    .unwrap();
            }
            group.bench_with_input(BenchmarkId::new(series, name), &stream, |b, stream| {
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
        }
    }
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
