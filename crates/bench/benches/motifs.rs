//! motifs (Criterion): per-transaction maintenance cost of cyclic-motif
//! views on the skewed motif workload — the fused ⨝ⁿ worst-case optimal
//! plan vs the binary join tree over the *same* shared network.
//!
//! Series:
//! * `wcoj_<query>/<size>` — the cyclic region pinned to one ⨝ⁿ node
//!   (`WcojMode::Forced`; deltas touch motif instances, never
//!   wedges). Forced rather than cost-based, so the series keeps
//!   measuring the fused node even where the catalog gate would pick
//!   the binary tree (quick-scale triangles, four-cycles everywhere —
//!   see `tests/fuse_gate.rs` for the gate's pinned decisions);
//! * `binary_<query>/<size>` — the pre-wcoj binary join tree, which
//!   materialises every wedge of the skewed graph in join memories;
//! * `hub_{sorted,hash}/<spokes>` — the two ⨝ⁿ intersection backends on
//!   the two-hub galloping workload: sorted-run sub-indexes (leapfrog
//!   with galloping seeks) vs the hash-bucket tries.
//!
//! The worst-case-optimality claim is asymptotic: the wcoj/binary gap
//! must *grow* between the two sizes, and the sorted/hash gap with the
//! hub degree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgq_algebra::CompileOptions;
use pgq_bench::{binary_tree, forced_wcoj};
use pgq_core::GraphEngine;
use pgq_workloads::motifs::{
    generate_hub_motifs, generate_motifs, queries as mq, HubMotifParams, MotifParams,
};

fn bench_motifs(c: &mut Criterion) {
    let mut group = c.benchmark_group("motifs");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(2000));

    for (size, params) in [
        ("quick", MotifParams::quick()),
        ("default", MotifParams::default()),
    ] {
        let mut net = generate_motifs(params);
        let stream = net.churn(50, params.tri_bias);
        for (query_name, q) in [
            ("triangles", mq::TRIANGLES),
            ("four_cycles", mq::FOUR_CYCLES),
        ] {
            for (mode, wcoj) in [("wcoj", true), ("binary", false)] {
                let mut engine = GraphEngine::from_graph(net.graph.clone());
                if wcoj {
                    engine
                        .register_view_with("v", q, CompileOptions::default(), forced_wcoj(true))
                        .unwrap();
                } else {
                    engine
                        .register_view_with("v", q, CompileOptions::default(), binary_tree())
                        .unwrap();
                }
                group.bench_with_input(
                    BenchmarkId::new(format!("{mode}_{query_name}"), size),
                    &stream,
                    |b, stream| {
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
                    },
                );
            }
        }
    }

    // Backend comparison on the hub motif: the bridge-edge flaps in the
    // churn script intersect two hub-degree adjacency lists per pass.
    let params = HubMotifParams::quick();
    let mut net = generate_hub_motifs(params);
    let stream = net.churn(30);
    for (mode, sorted) in [("hub_sorted", true), ("hub_hash", false)] {
        let mut engine = GraphEngine::from_graph(net.graph.clone());
        engine
            .register_view_with(
                "v",
                mq::TRIANGLES,
                CompileOptions::default(),
                forced_wcoj(sorted),
            )
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new(mode, params.spokes),
            &stream,
            |b, stream| {
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
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_motifs);
criterion_main!(benches);
