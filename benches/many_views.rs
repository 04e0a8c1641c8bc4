//! many_views (Criterion): per-transaction maintenance cost as N
//! overlapping standing queries grow — the workload the shared dataflow
//! network exists for. It is the repository's only criterion suite: no
//! perfbench workload registers a private, unshared baseline, so this is
//! the one measure of what sharing buys.
//!
//! Series per N:
//! * `shared_identical/N` — N copies of the same query on one engine;
//!   hash-consing collapses them to one operator chain, so cost should
//!   be flat in N.
//! * `shared_renamed/N` — N *alpha-renamed* copies of the same query
//!   (fresh variable names per copy); canonicalisation renames them to
//!   one positional form, so they must behave exactly like
//!   `shared_identical` (before canonicalisation they cost like
//!   `private`).
//! * `shared_overlap/N` — N distinct queries over the same Post/REPLY/
//!   Comm pattern (different projections/filters) on one engine; the
//!   common prefix is shared, so cost should grow sublinearly in N.
//! * `shared_where_family/N` — N queries differing only in a top-level
//!   `WHERE` predicate; the whole stateful prefix is shared and each
//!   member pays one private stateless σ.
//! * `private/N`, `private_renamed/N`, `private_where_family/N` — the
//!   same workloads, each view maintained by its own isolated
//!   single-view network (the pre-sharing architecture); the O(N)
//!   baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgq_algebra::pipeline::compile_query;
use pgq_core::GraphEngine;
use pgq_graph::store::PropertyGraph;
use pgq_ivm::MaterializedView;
use pgq_parser::parse_query;
use pgq_workloads::social::{
    generate_social, renamed_overlap_query, SocialParams, OVERLAPPING_QUERIES, WHERE_FAMILY_QUERIES,
};

/// Register the first `n` of `queries` as views on one engine sharing a
/// single dataflow network — the "shared" side of every series.
fn shared_engine(graph: &PropertyGraph, queries: &[String], n: usize) -> GraphEngine {
    let mut engine = GraphEngine::from_graph(graph.clone());
    for (i, q) in queries.iter().take(n).enumerate() {
        engine
            .register_view(&format!("v{i}"), q)
            .unwrap_or_else(|e| panic!("register v{i}: {e}"));
    }
    engine
}

/// Maintain the first `n` of `queries` as one private single-view
/// network each (the pre-sharing architecture) — the unshared baseline.
fn private_views(graph: &PropertyGraph, queries: &[String], n: usize) -> Vec<MaterializedView> {
    queries
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, q)| {
            let compiled = compile_query(&parse_query(q).expect("parses")).expect("compiles");
            MaterializedView::create(format!("p{i}"), &compiled, graph)
                .unwrap_or_else(|e| panic!("create view p{i}: {e}"))
        })
        .collect()
}

fn bench_many_views(c: &mut Criterion) {
    let mut group = c.benchmark_group("many_views");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(2000));

    let mut net = generate_social(SocialParams::scale(0.1, 42));
    let stream = net.update_stream(50, (4, 2, 3, 1));

    // The first benchmark of a process reads ~1.5-2× slow on managed
    // boxes (frequency governor / container scheduling ramp-up), which
    // would masquerade as "1 view costs double": burn the ramp-up on a
    // realistic throwaway workload before anything is measured.
    {
        let mut warm = GraphEngine::from_graph(net.graph.clone());
        warm.register_view("warm", OVERLAPPING_QUERIES[0]).unwrap();
        let end = std::time::Instant::now() + std::time::Duration::from_millis(1500);
        while std::time::Instant::now() < end {
            let mut e = warm.clone();
            for tx in &stream {
                e.apply(tx).unwrap();
            }
            criterion::black_box(e);
        }
    }

    let identical: Vec<String> = (0..16)
        .map(|_| OVERLAPPING_QUERIES[0].to_string())
        .collect();
    let renamed: Vec<String> = (0..16).map(renamed_overlap_query).collect();
    let overlap: Vec<String> = OVERLAPPING_QUERIES.iter().map(|q| q.to_string()).collect();
    let where_family: Vec<String> = WHERE_FAMILY_QUERIES.iter().map(|q| q.to_string()).collect();

    for n in [1usize, 4, 16] {
        for (series, queries) in [
            ("shared_identical", &identical),
            ("shared_renamed", &renamed),
            ("shared_overlap", &overlap),
            ("shared_where_family", &where_family),
        ] {
            let engine = shared_engine(&net.graph, queries, n);
            group.bench_with_input(BenchmarkId::new(series, n), &stream, |b, stream| {
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

        for (series, queries) in [
            ("private", &overlap),
            ("private_renamed", &renamed),
            ("private_where_family", &where_family),
        ] {
            let views = private_views(&net.graph, queries, n);
            group.bench_with_input(BenchmarkId::new(series, n), &stream, |b, stream| {
                b.iter_batched(
                    || (net.graph.clone(), views.clone()),
                    |(mut g, mut views)| {
                        for tx in stream {
                            let events = g.apply(tx).unwrap();
                            for v in &mut views {
                                v.on_transaction(&g, &events);
                            }
                        }
                        (g, views)
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_many_views);
criterion_main!(benches);
