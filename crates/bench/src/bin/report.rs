//! Regenerates every experiment table (E5–E10, E12–E13) and prints them as
//! markdown — the source of the numbers recorded in EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p pgq_bench --bin report`.
//! Pass `--quick` (or set `PGQ_BENCH_QUICK=1`) for a fast smoke run with
//! smaller sizes. Pass `--bench-json <path>` to skip the tables and
//! instead write the machine-readable `BENCH.json` perf-trajectory
//! document (suite → median, MAD, op/s over repeated rounds) for the
//! certified suites (`social_ivm`, `transitive`, `many_views`,
//! `concurrent_views`, `batch_churn`, `planner`).

use pgq_algebra::pipeline::CompileOptions;
use pgq_algebra::SchemaMode;
use pgq_bench::{
    binary_tree, check_agreement, compile, forced_wcoj, round_stats, run_ivm, run_recompute,
    unplanned, us, BenchJson, Table,
};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_core::GraphEngine;
use pgq_graph::tx::Transaction;
use pgq_workloads::hub::{generate_hub, queries as hq, HubParams};
use pgq_workloads::motifs::{
    generate_hub_motifs, generate_motifs, queries as mq, HubMotifParams, MotifParams,
};
use pgq_workloads::railway::{generate_railway, queries as rq, RailwayParams};
use pgq_workloads::social::{generate_social, queries as sq, SocialParams};
use pgq_workloads::trees::{expected_root_paths, reply_tree};
use pgq_workloads::EXAMPLE_QUERY;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Same PGQ_BENCH_QUICK spelling rules as the criterion shim.
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("PGQ_BENCH_QUICK")
            .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
    if let Some(ix) = args.iter().position(|a| a == "--bench-json") {
        let path = args
            .get(ix + 1)
            .expect("--bench-json needs a target path")
            .clone();
        emit_bench_json(quick, &path);
        return;
    }
    println!("# pgq experiment report\n");
    println!(
        "mode: {} (debug assertions {})\n",
        if quick { "quick" } else { "full" },
        if cfg!(debug_assertions) {
            "ON — use --release!"
        } else {
            "off"
        }
    );
    e5_train_benchmark(quick);
    e6_social(quick);
    e7_transitive(quick);
    e8_fgn(quick);
    e9_memory(quick);
    e10_ablation(quick);
    e12_planner(quick);
    e13_wcoj(quick);
}

/// Measure the certified perf suites over repeated rounds and write
/// `BENCH.json`. Mirrors the criterion benches (`social_ivm`,
/// `transitive`, `many_views`, `concurrent_views`, `planner`) so shim
/// output and this document agree on what is being measured.
fn emit_bench_json(quick: bool, path: &str) {
    let rounds = if quick { 5 } else { 21 };
    let mut doc = BenchJson::new(if quick { "quick" } else { "full" });

    // social_ivm: the paper's thread query maintained under a social
    // update stream (scale factor 0.5, 50 transactions).
    {
        let sf = if quick { 0.1 } else { 0.5 };
        let mut net = generate_social(SocialParams::scale(sf, 42));
        let stream = net.update_stream(50, (4, 2, 3, 1));
        let mut engine = GraphEngine::from_graph(net.graph.clone());
        engine
            .register_view("threads", sq::SAME_LANG_THREAD)
            .unwrap();
        let mut ivm_us = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let mut e = engine.clone();
            let t0 = std::time::Instant::now();
            for tx in &stream {
                e.apply(tx).unwrap();
            }
            ivm_us.push(t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0);
        }
        let stats = round_stats(&ivm_us);
        doc.suite("social_ivm", "us_per_tx", stats, 1e6 / stats.median);

        let compiled = compile(sq::SAME_LANG_THREAD, CompileOptions::default());
        let mut rec_us = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let (_, rec) = run_recompute(&net.graph, std::slice::from_ref(&compiled), &stream);
            rec_us.push(rec.us_per_tx());
        }
        let stats = round_stats(&rec_us);
        doc.suite("social_recompute", "us_per_tx", stats, 1e6 / stats.median);
    }

    // transitive: reply-tree churn at the leaf and at the root.
    {
        let (depth, fanout) = if quick { (4, 2) } else { (6, 2) };
        let tree = reply_tree(depth, fanout);
        let leaf_edge = *tree.edges.last().unwrap();
        let root_edge = tree.edges[0];
        // A churn pair = delete the edge + recreate it (the recreated
        // edge gets a fresh id, so track it between pairs). Each round
        // warms a cloned engine with 2 pairs, then times `pairs` of
        // them at nanosecond resolution — a single µs-truncated pair
        // cannot resolve sub-µs differences on these small trees.
        let pairs = if quick { 10 } else { 40 };
        for (which, edge) in [("leaf", leaf_edge), ("root", root_edge)] {
            let data = tree.graph.edge(edge).unwrap().clone();
            let mut engine = GraphEngine::from_graph(tree.graph.clone());
            engine.register_view("t", EXAMPLE_QUERY).unwrap();
            let mut churn_us = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let mut e = engine.clone();
                let mut cur = edge;
                let churn = |e: &mut GraphEngine, cur: &mut pgq_common::ids::EdgeId| {
                    let mut tx = Transaction::new();
                    tx.delete_edge(*cur);
                    e.apply(&tx).unwrap();
                    let mut tx = Transaction::new();
                    tx.create_edge(data.src, data.dst, data.ty, data.props.clone());
                    let events = e.apply(&tx).unwrap();
                    // The recreated edge's fresh id, straight from the
                    // change feed (an O(|E|) id sweep here would charge
                    // graph iteration to the IVM measurement).
                    *cur = events
                        .iter()
                        .find_map(pgq_graph::delta::ChangeEvent::touched_edge)
                        .expect("create emits an edge event");
                };
                for _ in 0..2 {
                    churn(&mut e, &mut cur);
                }
                let t0 = std::time::Instant::now();
                for _ in 0..pairs {
                    churn(&mut e, &mut cur);
                }
                churn_us.push(t0.elapsed().as_nanos() as f64 / (pairs * 2) as f64 / 1000.0);
            }
            let stats = round_stats(&churn_us);
            let name = format!("transitive_ivm_{which}");
            doc.suite(&name, "us_per_tx", stats, 1e6 / stats.median);
        }
        let compiled = compile(EXAMPLE_QUERY, CompileOptions::default());
        let mut rec_us = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = std::time::Instant::now();
            let _ = pgq_eval::evaluate_consolidated(&compiled.fra, &tree.graph);
            rec_us.push(t0.elapsed().as_micros() as f64);
        }
        let stats = round_stats(&rec_us);
        doc.suite(
            "transitive_recompute",
            "us_per_eval",
            stats,
            1e6 / stats.median,
        );
    }

    // many_views: N overlapping standing queries on one shared network
    // (the node-sharing payoff: per-transaction cost must grow
    // sublinearly in N). Alternate the N variants inside each round so
    // machine-speed drift hits them equally.
    {
        let sf = 0.1;
        let mut net = generate_social(SocialParams::scale(sf, 42));
        let stream = net.update_stream(50, (4, 2, 3, 1));
        let ns: &[usize] = &[1, 4, 16];
        let engines: Vec<_> = ns
            .iter()
            .map(|&n| {
                let mut engine = GraphEngine::from_graph(net.graph.clone());
                for (i, q) in pgq_workloads::social::OVERLAPPING_QUERIES
                    .iter()
                    .take(n)
                    .enumerate()
                {
                    engine.register_view(&format!("v{i}"), q).unwrap();
                }
                engine
            })
            .collect();
        let mut us: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); ns.len()];
        for _ in 0..rounds {
            for (ix, engine) in engines.iter().enumerate() {
                let mut e = engine.clone();
                let t0 = std::time::Instant::now();
                for tx in &stream {
                    e.apply(tx).unwrap();
                }
                us[ix].push(t0.elapsed().as_micros() as f64 / stream.len() as f64);
            }
        }
        for (ix, &n) in ns.iter().enumerate() {
            let stats = round_stats(&us[ix]);
            doc.suite(
                &format!("many_views_{n}"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
        }
    }

    // many_views sharing certification: the alpha-renamed family and the
    // WHERE-only-differing family at N=16, shared network vs the
    // unshared baseline (one private single-view network per query — the
    // pre-sharing architecture). Shared and private variants alternate
    // inside each round so machine-speed drift hits them equally.
    {
        use pgq_ivm::MaterializedView;
        use pgq_workloads::social::{renamed_overlap_query, WHERE_FAMILY_QUERIES};

        let n = 16;
        let mut net = generate_social(SocialParams::scale(0.1, 42));
        let stream = net.update_stream(50, (4, 2, 3, 1));
        let renamed: Vec<String> = (0..n).map(renamed_overlap_query).collect();
        let family: Vec<String> = WHERE_FAMILY_QUERIES
            .iter()
            .take(n)
            .map(|q| q.to_string())
            .collect();

        let variants: Vec<(String, GraphEngine, Vec<MaterializedView>)> = vec![
            (
                "renamed".into(),
                pgq_bench::shared_engine(&net.graph, &renamed, n),
                pgq_bench::private_views(&net.graph, &renamed, n),
            ),
            (
                "where".into(),
                pgq_bench::shared_engine(&net.graph, &family, n),
                pgq_bench::private_views(&net.graph, &family, n),
            ),
        ];
        let mut shared_us: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); variants.len()];
        let mut private_us: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); variants.len()];
        for _ in 0..rounds {
            for (ix, (_, engine, views)) in variants.iter().enumerate() {
                let mut e = engine.clone();
                let t0 = std::time::Instant::now();
                for tx in &stream {
                    e.apply(tx).unwrap();
                }
                shared_us[ix].push(t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0);

                let mut g = net.graph.clone();
                let mut vs = views.clone();
                let t0 = std::time::Instant::now();
                for tx in &stream {
                    let events = g.apply(tx).unwrap();
                    for v in &mut vs {
                        v.on_transaction(&g, &events);
                    }
                }
                private_us[ix].push(t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0);
            }
        }
        for (ix, (name, _, _)) in variants.iter().enumerate() {
            let stats = round_stats(&shared_us[ix]);
            doc.suite(
                &format!("many_views_{name}_{n}"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
            let stats = round_stats(&private_us[ix]);
            doc.suite(
                &format!("many_views_{name}_private_{n}"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
        }
    }

    // concurrent_views_t{w}: language churn across independent branch
    // views at propagation widths 1/2/4/8 (PGQ_THREADS equivalent).
    // Every transaction flips every branch root's `lang`, so each pass
    // dirties all branch regions at once — the widest frontier the
    // worker pool can exploit. Widths alternate inside each round so
    // machine-speed drift hits them equally. NOTE: speedup over t1 is
    // only possible when the host grants >1 core; on a single-core host
    // the t>1 suites measure pure scheduling overhead (the honest
    // number). `host_cores` below records what this run actually had.
    {
        let widths: &[usize] = &[1, 2, 4, 8];
        let (depth, pairs) = if quick { (4, 20) } else { (6, 40) };
        let forest = pgq_workloads::branch_forest(8, depth, 2);
        let mut template = GraphEngine::from_graph(forest.graph.clone());
        for i in 0..forest.branches.len() {
            template
                .register_view(&format!("b{i}"), &pgq_workloads::branch_query(i))
                .unwrap();
        }
        let retract = pgq_workloads::churn_all(&forest, "de");
        let assert_tx = pgq_workloads::churn_all(&forest, "en");
        let engines: Vec<_> = widths
            .iter()
            .map(|&w| {
                let mut e = template.clone();
                e.set_threads(w);
                // Build the worker pool now so the per-round clones
                // share it (via `Arc`) instead of spawning threads
                // inside the timing.
                e.apply(&retract).unwrap();
                e.apply(&assert_tx).unwrap();
                e
            })
            .collect();
        // Width-1 is the oracle: every width must produce identical
        // consolidated view contents (cheap gate outside the timing).
        {
            let rows = |e: &GraphEngine| -> Vec<_> {
                (0..forest.branches.len())
                    .map(|i| {
                        let id = e.view_by_name(&format!("b{i}")).unwrap();
                        e.view(id).unwrap().results()
                    })
                    .collect()
            };
            let mut oracle = engines[0].clone();
            oracle.apply(&retract).unwrap();
            oracle.apply(&assert_tx).unwrap();
            let want = rows(&oracle);
            for (&w, engine) in widths.iter().zip(&engines).skip(1) {
                let mut e = engine.clone();
                e.apply(&retract).unwrap();
                e.apply(&assert_tx).unwrap();
                assert_eq!(rows(&e), want, "width {w} diverged from serial");
            }
        }
        let mut us: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); widths.len()];
        for _ in 0..rounds {
            for (ix, engine) in engines.iter().enumerate() {
                let mut e = engine.clone();
                let t0 = std::time::Instant::now();
                for _ in 0..pairs {
                    e.apply(&retract).unwrap();
                    e.apply(&assert_tx).unwrap();
                }
                us[ix].push(t0.elapsed().as_nanos() as f64 / (pairs * 2) as f64 / 1000.0);
            }
        }
        for (ix, &w) in widths.iter().enumerate() {
            let stats = round_stats(&us[ix]);
            doc.suite(
                &format!("concurrent_views_t{w}"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
        }
        // Record the host's usable parallelism alongside the width
        // suites — without it the t>1 numbers cannot be interpreted.
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        doc.suite(
            "host_cores",
            "cores",
            round_stats(&[cores as f64]),
            cores as f64,
        );

        // batch_churn_*: the same forest driven by single-branch
        // transactions round-robin (sweep 0 flips every branch to "de"
        // one tx at a time, sweep 1 back to "en", …). Within a sweep
        // every footprint is disjoint, so `apply_batch` coalesces each
        // sweep into one propagation pass; the sequential baseline pays
        // one pass per transaction. Batched/sequential alternate inside
        // each round.
        {
            let sweeps = 6;
            let nb = forest.branches.len();
            let stream: Vec<Transaction> = (0..sweeps)
                .flat_map(|k| {
                    let lang = if k % 2 == 0 { "de" } else { "en" };
                    let forest = &forest;
                    (0..nb).map(move |b| pgq_workloads::churn_one(forest, b, lang))
                })
                .collect();
            // Agreement gate: batched and sequential end in the same
            // view state, and batching really does fold each sweep
            // into one pass.
            {
                let mut batched = engines[0].clone();
                let summary = batched.apply_batch(&stream).unwrap();
                assert_eq!(summary.transactions, stream.len());
                assert_eq!(summary.passes, sweeps, "one pass per sweep");
                let mut seq = engines[0].clone();
                for tx in &stream {
                    seq.apply(tx).unwrap();
                }
                let rows = |e: &GraphEngine| -> Vec<_> {
                    (0..nb)
                        .map(|i| {
                            let id = e.view_by_name(&format!("b{i}")).unwrap();
                            e.view(id).unwrap().results()
                        })
                        .collect()
                };
                assert_eq!(rows(&batched), rows(&seq), "batched diverged");
            }
            let mut batched_us = Vec::with_capacity(rounds);
            let mut seq_us = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let mut e = engines[0].clone();
                let t0 = std::time::Instant::now();
                e.apply_batch(&stream).unwrap();
                batched_us.push(t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0);

                let mut e = engines[0].clone();
                let t0 = std::time::Instant::now();
                for tx in &stream {
                    e.apply(tx).unwrap();
                }
                seq_us.push(t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0);
            }
            let stats = round_stats(&batched_us);
            doc.suite(
                "batch_churn_batched",
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
            let stats = round_stats(&seq_us);
            doc.suite(
                "batch_churn_sequential",
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
        }
    }

    // planner_*: the skewed hub fan-out workload, cost-based join order
    // vs the same query registered with the planner disabled (the
    // syntactic order) — same binary, planned/syntactic alternating
    // inside each round so machine-speed drift hits them equally.
    {
        let params = if quick {
            HubParams::quick()
        } else {
            HubParams::default()
        };
        let mut net = generate_hub(params);
        let stream = net.update_stream(50);
        for (name, q) in [("hub", hq::RARE_TOPIC_FANS), ("filter", hq::RARE_CAT_FANS)] {
            let mut planned = GraphEngine::from_graph(net.graph.clone());
            planned.register_view("v", q).unwrap();
            let mut syntactic = GraphEngine::from_graph(net.graph.clone());
            syntactic
                .register_view_with("v", q, CompileOptions::default(), unplanned())
                .unwrap();

            let mut planned_us = Vec::with_capacity(rounds);
            let mut syntactic_us = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                for (engine, out) in [(&planned, &mut planned_us), (&syntactic, &mut syntactic_us)]
                {
                    let mut e = engine.clone();
                    let t0 = std::time::Instant::now();
                    for tx in &stream {
                        e.apply(tx).unwrap();
                    }
                    out.push(t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0);
                }
            }
            // Both orders must agree (cheap oracle outside the timing).
            {
                let (mut p, mut s) = (planned.clone(), syntactic.clone());
                for tx in &stream {
                    p.apply(tx).unwrap();
                    s.apply(tx).unwrap();
                }
                let rows = |e: &GraphEngine| {
                    let id = e.view_by_name("v").unwrap();
                    e.view(id).unwrap().results()
                };
                assert_eq!(rows(&p), rows(&s), "planned and syntactic orders diverged");
            }
            let stats = round_stats(&planned_us);
            doc.suite(
                &format!("planner_{name}_ivm"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
            let stats = round_stats(&syntactic_us);
            doc.suite(
                &format!("planner_{name}_syntactic"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
        }
    }

    // triangles_* / motif_*: cyclic-motif maintenance on the skewed
    // motif workload, the fused ⨝ⁿ worst-case optimal plan vs the
    // binary join tree (`binary_tree()`), at two edge scales.
    // The optimality claim is asymptotic — the wcoj/binary ratio must
    // grow between `s` and `m` — so both sizes are certified. Fused and
    // binary engines alternate inside each round so machine-speed drift
    // hits them equally.
    {
        let sizes: &[(&str, usize, usize)] = if quick {
            &[("s", 60, 150), ("m", 120, 400)]
        } else {
            &[("s", 300, 900), ("m", 1200, 6000)]
        };
        for &(tag, nodes, edges) in sizes {
            let mut net = generate_motifs(MotifParams {
                nodes,
                edges,
                ..MotifParams::default()
            });
            let stream = net.churn(50, 0.3);
            for (base, q) in [
                ("triangles", mq::TRIANGLES),
                ("motif_4cycle", mq::FOUR_CYCLES),
            ] {
                let mut wcoj = GraphEngine::from_graph(net.graph.clone());
                wcoj.register_view("v", q).unwrap();
                let mut binary = GraphEngine::from_graph(net.graph.clone());
                binary
                    .register_view_with("v", q, CompileOptions::default(), binary_tree())
                    .unwrap();
                // Both plans must agree after the whole stream (cheap
                // oracle outside the timing) — a fast number on a wrong
                // answer cannot be recorded.
                {
                    let (mut w, mut b) = (wcoj.clone(), binary.clone());
                    for tx in &stream {
                        w.apply(tx).unwrap();
                        b.apply(tx).unwrap();
                    }
                    let rows = |e: &GraphEngine| {
                        let id = e.view_by_name("v").unwrap();
                        e.view(id).unwrap().results()
                    };
                    assert_eq!(
                        rows(&w),
                        rows(&b),
                        "wcoj and binary plans diverged on {base}_{tag}"
                    );
                }
                let mut wcoj_us = Vec::with_capacity(rounds);
                let mut binary_us = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    for (engine, out) in [(&wcoj, &mut wcoj_us), (&binary, &mut binary_us)] {
                        let mut e = engine.clone();
                        let t0 = std::time::Instant::now();
                        for tx in &stream {
                            e.apply(tx).unwrap();
                        }
                        out.push(t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0);
                    }
                }
                let stats = round_stats(&wcoj_us);
                doc.suite(
                    &format!("{base}_wcoj_{tag}"),
                    "us_per_tx",
                    stats,
                    1e6 / stats.median,
                );
                let stats = round_stats(&binary_us);
                doc.suite(
                    &format!("{base}_binary_{tag}"),
                    "us_per_tx",
                    stats,
                    1e6 / stats.median,
                );
            }
        }
    }

    // triangles_hub_*: the galloping target case — triangle maintenance
    // whose bridge-edge deltas intersect two hub-degree candidate lists
    // with a tiny, id-segregated overlap. Sorted-run backend vs the
    // hash-trie fallback, fusion forced on both engines so they run the
    // identical ⨝ⁿ plan and differ only in the intersection machinery.
    // The certified claim (sorted ≥ 1.5× hash at hub degree ≥ 10k)
    // lives on the `m` size.
    {
        let sizes: &[(&str, usize, usize)] = if quick {
            &[("s", 400, 8)]
        } else {
            &[("s", 2_000, 20), ("m", 10_000, 100)]
        };
        for &(tag, spokes, closers) in sizes {
            let mut net = generate_hub_motifs(HubMotifParams {
                spokes,
                closers,
                seed: 11,
            });
            let stream = net.churn(if quick { 30 } else { 50 });
            let mut sorted_e = GraphEngine::from_graph(net.graph.clone());
            sorted_e
                .register_view_with(
                    "v",
                    mq::TRIANGLES,
                    CompileOptions::default(),
                    forced_wcoj(true),
                )
                .unwrap();
            let mut hash_e = GraphEngine::from_graph(net.graph.clone());
            hash_e
                .register_view_with(
                    "v",
                    mq::TRIANGLES,
                    CompileOptions::default(),
                    forced_wcoj(false),
                )
                .unwrap();
            // Both backends must agree after the whole stream (cheap
            // oracle outside the timing).
            {
                let (mut a, mut b) = (sorted_e.clone(), hash_e.clone());
                for tx in &stream {
                    a.apply(tx).unwrap();
                    b.apply(tx).unwrap();
                }
                let rows = |e: &GraphEngine| {
                    let id = e.view_by_name("v").unwrap();
                    e.view(id).unwrap().results()
                };
                assert_eq!(
                    rows(&a),
                    rows(&b),
                    "sorted and hash backends diverged on triangles_hub_{tag}"
                );
            }
            let mut sorted_us = Vec::with_capacity(rounds);
            let mut hash_us = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                for (engine, out) in [(&sorted_e, &mut sorted_us), (&hash_e, &mut hash_us)] {
                    let mut e = engine.clone();
                    let t0 = std::time::Instant::now();
                    for tx in &stream {
                        e.apply(tx).unwrap();
                    }
                    out.push(t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0);
                }
            }
            let stats = round_stats(&sorted_us);
            doc.suite(
                &format!("triangles_hub_sorted_{tag}"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
            let stats = round_stats(&hash_us);
            doc.suite(
                &format!("triangles_hub_hash_{tag}"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
        }
    }

    // recovery_* / snapshot_tick_*: what a snapshot costs and what it
    // buys. The image is graph + view catalog (no operator state, so
    // there is one recovery path and no warm/cold pair to compare):
    // `recovery_*` is one `open_durable_with` — decode, restore the
    // graph, register each join-heavy view once, empty WAL tail — and
    // `snapshot_tick_*` is one `engine.snapshot()` on that engine, what
    // an explicit snapshot or a view registration pays (the commit
    // cadence folds in the background instead). In-memory Vfs, so
    // neither number contains host disk.
    {
        use std::sync::Arc;

        let sizes: &[(&str, f64)] = if quick {
            &[("s", 0.1)]
        } else {
            &[("s", 0.2), ("m", 0.5)]
        };
        let named = pgq_bench::durable_social_views();
        let views: Vec<(&str, &str)> = named.iter().map(|(n, q)| (n.as_str(), *q)).collect();
        for &(tag, sf) in sizes {
            let vfs = Arc::new(pgq_bench::durable_social_image(sf).vfs());
            let mut open_us = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let t0 = std::time::Instant::now();
                let e = GraphEngine::open_durable_with(vfs.clone()).unwrap();
                open_us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
                drop(e);
            }
            let stats = round_stats(&open_us);
            doc.suite(
                &format!("recovery_{tag}"),
                "us_per_open",
                stats,
                1e6 / stats.median,
            );

            let mut engine = GraphEngine::open_durable_with(vfs.clone()).unwrap();
            // Correctness oracle outside the timing: the rebuilt views
            // answer exactly as a recompute over the recovered graph.
            check_agreement(&engine, &views);
            let mut tick_us = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let t0 = std::time::Instant::now();
                engine.snapshot().unwrap();
                tick_us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
            }
            let stats = round_stats(&tick_us);
            doc.suite(
                &format!("snapshot_tick_{tag}"),
                "us_per_snapshot",
                stats,
                1e6 / stats.median,
            );
        }
    }

    // group_commit_{w1,w8}: fsync-always against the *real* filesystem
    // (a scratch directory), where sync_data has a true cost — exactly
    // what an 8-commit flush window amortises. The snapshot cadence is
    // disabled so the suite isolates append+fsync.
    {
        use std::sync::Arc;

        let gtxs = if quick { 32 } else { 96 };
        let gstream: Vec<Transaction> = (0..gtxs)
            .map(|i| {
                let mut tx = Transaction::new();
                tx.create_vertex(
                    [Symbol::intern("Post")],
                    [("lang", Value::Int(i as i64 % 5))]
                        .into_iter()
                        .map(|(k, v)| (Symbol::intern(k), v))
                        .collect(),
                );
                tx
            })
            .collect();
        for (tag, window) in [("w1", 1u64), ("w8", 8u64)] {
            let mut us_rounds = Vec::with_capacity(rounds);
            for round in 0..rounds {
                let dir = std::env::temp_dir()
                    .join(format!("pgq_bench_gc_{}_{tag}_{round}", std::process::id()));
                std::fs::create_dir_all(&dir).unwrap();
                let vfs =
                    pgq_durability::StdVfs::new(&dir, pgq_durability::FsyncMode::Always).unwrap();
                let mut e = GraphEngine::open_durable_with(Arc::new(vfs)).unwrap();
                e.set_snapshot_every(0);
                e.set_fsync(pgq_durability::FsyncMode::Always);
                e.set_flush_window(window);
                let t0 = std::time::Instant::now();
                for tx in &gstream {
                    e.apply(tx).unwrap();
                }
                us_rounds.push(t0.elapsed().as_nanos() as f64 / gstream.len() as f64 / 1000.0);
                drop(e);
                let _ = std::fs::remove_dir_all(&dir);
            }
            let stats = round_stats(&us_rounds);
            doc.suite(
                &format!("group_commit_{tag}"),
                "us_per_tx",
                stats,
                1e6 / stats.median,
            );
        }
    }

    std::fs::write(path, doc.render()).expect("write BENCH.json");
    eprintln!("wrote {path}");
}

/// E5: Train-Benchmark-shaped validation, IVM vs recompute per query and
/// model size.
fn e5_train_benchmark(quick: bool) {
    println!("## T-E5 — railway validation (Train Benchmark shape)\n");
    let sizes: &[u32] = if quick { &[2, 3] } else { &[2, 4, 6, 8] };
    let queries = [
        ("PosLength", rq::POS_LENGTH),
        ("SwitchSet", rq::SWITCH_SET),
        ("RouteSensor", rq::ROUTE_SENSOR),
        ("RouteSensorNeg", rq::ROUTE_SENSOR_NEG),
        ("SwitchMonitoredNeg", rq::SWITCH_MONITORED_NEG),
        ("ConnectedSegments", rq::CONNECTED_SEGMENTS),
    ];
    let stream_len = if quick { 50 } else { 200 };
    let mut table = Table::new(&[
        "size (routes)",
        "|V|",
        "|E|",
        "query",
        "IVM µs/tx",
        "recompute µs/tx",
        "speed-up",
    ]);
    for &k in sizes {
        let mut rw = generate_railway(RailwayParams::size(k, 7));
        let stream = rw.fault_stream(stream_len);
        for (name, q) in queries {
            let qs = [(name, q)];
            let (_, ivm, engine) = run_ivm(&rw.graph, &qs, CompileOptions::default(), &stream);
            check_agreement(&engine, &qs);
            let compiled = [compile(q, CompileOptions::default())];
            let (_, rec) = run_recompute(&rw.graph, &compiled, &stream);
            table.row(vec![
                format!("{}", 1u32 << k),
                format!("{}", rw.graph.vertex_count()),
                format!("{}", rw.graph.edge_count()),
                name.to_string(),
                format!("{:.1}", ivm.us_per_tx()),
                format!("{:.1}", rec.us_per_tx()),
                format!("{:.0}×", rec.us_per_tx() / ivm.us_per_tx().max(0.001)),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E6: social stream, the paper's thread query under churn.
fn e6_social(quick: bool) {
    println!("## T-E6 — social network stream (LDBC SNB shape)\n");
    let sfs: &[f64] = if quick {
        &[0.1, 0.25]
    } else {
        &[0.1, 0.25, 0.5, 1.0, 2.0]
    };
    let stream_len = if quick { 50 } else { 200 };
    let mut table = Table::new(&[
        "scale factor",
        "|V|",
        "|E|",
        "view rows",
        "IVM build",
        "IVM µs/tx",
        "recompute µs/tx",
        "speed-up",
    ]);
    for &sf in sfs {
        let mut net = generate_social(SocialParams::scale(sf, 42));
        let stream = net.update_stream(stream_len, (4, 2, 3, 1));
        let qs = [("threads", sq::SAME_LANG_THREAD)];
        let (build, ivm, engine) = run_ivm(&net.graph, &qs, CompileOptions::default(), &stream);
        check_agreement(&engine, &qs);
        let compiled = [compile(sq::SAME_LANG_THREAD, CompileOptions::default())];
        let (_, rec) = run_recompute(&net.graph, &compiled, &stream);
        let id = engine.view_by_name("threads").unwrap();
        table.row(vec![
            format!("{sf}"),
            format!("{}", net.graph.vertex_count()),
            format!("{}", net.graph.edge_count()),
            format!("{}", engine.view(id).unwrap().row_count()),
            us(build),
            format!("{:.1}", ivm.us_per_tx()),
            format!("{:.1}", rec.us_per_tx()),
            format!("{:.0}×", rec.us_per_tx() / ivm.us_per_tx().max(0.001)),
        ]);
    }
    println!("{}", table.render());
}

/// E7: transitive-closure maintenance on reply trees — cost is
/// proportional to affected paths, not graph size.
fn e7_transitive(quick: bool) {
    println!("## T-E7 — incremental transitive closure (reply trees)\n");
    let shapes: &[(usize, usize)] = if quick {
        &[(4, 2), (6, 2)]
    } else {
        &[(4, 2), (6, 2), (8, 2), (3, 4), (12, 1)]
    };
    let mut table = Table::new(&[
        "tree (depth×fanout)",
        "paths",
        "IVM leaf churn µs/tx",
        "IVM root churn µs/tx",
        "recompute µs/tx",
    ]);
    for &(depth, fanout) in shapes {
        let tree = reply_tree(depth, fanout);
        // Leaf churn: delete + re-add one deepest edge.
        let leaf_edge = *tree.edges.last().unwrap();
        let leaf_data = tree.graph.edge(leaf_edge).unwrap().clone();
        // Root churn: delete + re-add the first edge under the root.
        let root_edge = tree.edges[0];
        let root_data = tree.graph.edge(root_edge).unwrap().clone();

        let churn = |edge, data: &pgq_graph::store::EdgeData, iters: usize| {
            let mut engine = GraphEngine::from_graph(tree.graph.clone());
            engine.register_view("t", EXAMPLE_QUERY).unwrap();
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                let mut tx = Transaction::new();
                tx.delete_edge(edge);
                engine.apply(&tx).unwrap();
                // Re-insert with the same endpoints (new id).
                let mut tx = Transaction::new();
                tx.create_edge(data.src, data.dst, data.ty, data.props.clone());
                let evs = engine.apply(&tx).unwrap();
                // Track the new edge id for the next round.
                let _ = evs;
            }
            t0.elapsed().as_micros() as f64 / (2 * iters) as f64
        };
        // Edge ids change across churn rounds; measure one round several
        // times from fresh engines instead.
        let rounds = if quick { 3 } else { 5 };
        let mut leaf_us = 0.0;
        let mut root_us = 0.0;
        for _ in 0..rounds {
            leaf_us += churn(leaf_edge, &leaf_data, 1);
            root_us += churn(root_edge, &root_data, 1);
        }
        leaf_us /= rounds as f64;
        root_us /= rounds as f64;

        // Recompute cost per transaction.
        let compiled = [compile(EXAMPLE_QUERY, CompileOptions::default())];
        let mut tx = Transaction::new();
        tx.delete_edge(leaf_edge);
        let (_, rec) = run_recompute(&tree.graph, &compiled, &[tx]);

        table.row(vec![
            format!("{depth}×{fanout}"),
            format!("{}", expected_root_paths(depth, fanout)),
            format!("{leaf_us:.1}"),
            format!("{root_us:.1}"),
            format!("{:.1}", rec.us_per_tx()),
        ]);
    }
    println!("{}", table.render());
}

/// E8: fine-grained property updates (FGN) vs coarse re-creation vs
/// recompute.
fn e8_fgn(quick: bool) {
    println!("## T-E8 — fine-grained updates (FGN)\n");
    let mut net = generate_social(SocialParams::scale(if quick { 0.1 } else { 0.5 }, 42));
    let n = if quick { 50 } else { 200 };
    // Pure retag stream (fine-grained).
    let retags = net.update_stream(n, (0, 0, 1, 0));
    let qs = [("threads", sq::SAME_LANG_THREAD)];
    let (_, fine, engine) = run_ivm(&net.graph, &qs, CompileOptions::default(), &retags);
    check_agreement(&engine, &qs);

    // Coarse-grained equivalent: model each retag as delete + recreate of
    // the vertex (what a system without FGN must do). We simulate on
    // posts with their incident edges re-attached.
    let coarse_time = {
        let mut engine = GraphEngine::from_graph(net.graph.clone());
        engine
            .register_view("threads", sq::SAME_LANG_THREAD)
            .unwrap();
        let posts = net.posts.clone();
        let t0 = std::time::Instant::now();
        for (i, &p) in posts.iter().take(n).enumerate() {
            let data = engine.graph().vertex(p).unwrap().clone();
            let out: Vec<_> = engine
                .graph()
                .out_edges(p)
                .iter()
                .map(|&e| engine.graph().edge(e).unwrap().clone())
                .collect();
            let inc: Vec<_> = engine
                .graph()
                .in_edges(p)
                .iter()
                .map(|&e| engine.graph().edge(e).unwrap().clone())
                .collect();
            let mut tx = Transaction::new();
            tx.delete_vertex(p, true);
            let mut props = data.props.clone();
            props.set(Symbol::intern("lang"), Value::str(["en", "de"][i % 2]));
            let nv = tx.create_vertex(data.labels.iter().copied(), props);
            for e in out {
                tx.create_edge(nv, e.dst, e.ty, e.props.clone());
            }
            for e in inc {
                tx.create_edge(e.src, nv, e.ty, e.props.clone());
            }
            engine.apply(&tx).unwrap();
        }
        t0.elapsed().as_micros() as f64 / n.min(net.posts.len()) as f64
    };

    let compiled = [compile(sq::SAME_LANG_THREAD, CompileOptions::default())];
    let (_, rec) = run_recompute(&net.graph, &compiled, &retags);

    let mut table = Table::new(&["strategy", "µs per property update"]);
    table.row(vec![
        "IVM, fine-grained property delta (FGN)".into(),
        format!("{:.1}", fine.us_per_tx()),
    ]);
    table.row(vec![
        "IVM, coarse delete+recreate (no FGN)".into(),
        format!("{coarse_time:.1}"),
    ]);
    table.row(vec![
        "full recompute".into(),
        format!("{:.1}", rec.us_per_tx()),
    ]);
    println!("{}", table.render());
}

/// E9: memory and first-evaluation trade-off.
fn e9_memory(quick: bool) {
    println!("## T-E9 — memory / first-evaluation trade-off\n");
    let sizes: &[u32] = if quick { &[2, 3] } else { &[2, 4, 6, 8] };
    let mut table = Table::new(&[
        "size (routes)",
        "graph elems",
        "query",
        "view rows",
        "IVM memory tuples",
        "IVM build",
        "one recompute",
    ]);
    for &k in sizes {
        let rw = generate_railway(RailwayParams::size(k, 7));
        for (name, q) in [
            ("RouteSensor", rq::ROUTE_SENSOR),
            ("ConnectedSegments", rq::CONNECTED_SEGMENTS),
            ("SegmentReach", rq::SEGMENT_REACH),
        ] {
            let qs = [(name, q)];
            let (build, _, engine) = run_ivm(&rw.graph, &qs, CompileOptions::default(), &[]);
            let id = engine.view_by_name(name).unwrap();
            let view = engine.view(id).unwrap();
            let compiled = [compile(q, CompileOptions::default())];
            let (first, _) = run_recompute(&rw.graph, &compiled, &[]);
            table.row(vec![
                format!("{}", 1u32 << k),
                format!("{}", rw.graph.vertex_count() + rw.graph.edge_count()),
                name.to_string(),
                format!("{}", view.row_count()),
                format!("{}", view.memory_tuples()),
                us(build),
                us(first),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E10: the paper's step-3 ablation — inferred-schema push-down vs
/// carrying whole property maps.
fn e10_ablation(quick: bool) {
    println!("## T-E10 — schema push-down ablation (paper step 3)\n");
    let mut net = generate_social(SocialParams::scale(if quick { 0.1 } else { 0.5 }, 42));
    let n = if quick { 50 } else { 200 };
    let retags = net.update_stream(n, (2, 0, 2, 0));
    let mut table = Table::new(&[
        "mode",
        "FRA total width",
        "IVM memory tuples",
        "IVM build",
        "IVM µs/tx",
    ]);
    for (label, mode) in [
        ("inferred schema (push-down, paper)", SchemaMode::Inferred),
        (
            "carry whole property maps (ablation)",
            SchemaMode::CarryMaps,
        ),
    ] {
        let options = CompileOptions {
            schema_mode: mode,
            ..CompileOptions::default()
        };
        let qs = [("threads", sq::SAME_LANG_THREAD)];
        let (build, ivm, engine) = run_ivm(&net.graph, &qs, options, &retags);
        check_agreement(&engine, &qs);
        let id = engine.view_by_name("threads").unwrap();
        let compiled = engine.view_compiled(id).unwrap();
        table.row(vec![
            label.to_string(),
            format!("{}", compiled.fra.total_width()),
            format!("{}", engine.view(id).unwrap().memory_tuples()),
            us(build),
            format!("{:.1}", ivm.us_per_tx()),
        ]);
    }
    println!("{}", table.render());
}

/// E12 (extension): the statistics-driven join-order planner on the
/// skewed hub workload — cost-based order vs the syntactic order.
fn e12_planner(quick: bool) {
    println!("## T-E12 — cost-based join-order planner (hub fan-out skew)\n");
    let params = if quick {
        HubParams::quick()
    } else {
        HubParams::default()
    };
    let mut net = generate_hub(params);
    let n = if quick { 50 } else { 200 };
    let stream = net.update_stream(n);
    let mut table = Table::new(&[
        "query",
        "planned µs/tx",
        "syntactic µs/tx",
        "speed-up",
        "planned memory tuples",
        "syntactic memory tuples",
    ]);
    for (name, q) in [
        ("RareTopicFans", hq::RARE_TOPIC_FANS),
        ("RareCatFans", hq::RARE_CAT_FANS),
    ] {
        let run = |planned: bool| -> (f64, usize) {
            let mut e = GraphEngine::from_graph(net.graph.clone());
            if planned {
                e.register_view("v", q).unwrap();
            } else {
                e.register_view_with("v", q, CompileOptions::default(), unplanned())
                    .unwrap();
            }
            let t0 = std::time::Instant::now();
            for tx in &stream {
                e.apply(tx).unwrap();
            }
            let us = t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0;
            let id = e.view_by_name("v").unwrap();
            (us, e.view(id).unwrap().memory_tuples())
        };
        let (p_us, p_mem) = run(true);
        let (s_us, s_mem) = run(false);
        table.row(vec![
            name.to_string(),
            format!("{p_us:.1}"),
            format!("{s_us:.1}"),
            format!("{:.1}×", s_us / p_us.max(0.001)),
            format!("{p_mem}"),
            format!("{s_mem}"),
        ]);
    }
    println!("{}", table.render());
}

/// E13 (extension): worst-case optimal n-ary joins on cyclic motifs —
/// the fused ⨝ⁿ plan vs the binary join tree, with the intermediate
/// evidence for the asymptotic claim: join-memory tuples and (when
/// built with `--features ivm-stats`) the per-operator emit counters.
/// Binary trees emit every wedge (Θ(Σ deg²) on this skew); ⨝ⁿ emits
/// only motif instances, so its counter stays flat as |E| grows.
fn e13_wcoj(quick: bool) {
    println!("## T-E13 — worst-case optimal joins (cyclic motifs)\n");
    let sizes: &[(usize, usize)] = if quick {
        &[(60, 150), (120, 400)]
    } else {
        &[(300, 900), (600, 2400), (1200, 6000)]
    };
    let n = if quick { 30 } else { 50 };
    let mut table = Table::new(&[
        "|V| / |E|",
        "query",
        "wcoj µs/tx",
        "binary µs/tx",
        "speed-up",
        "wcoj mem tuples",
        "binary mem tuples",
        "wcoj emits",
        "binary join emits",
    ]);
    for &(nodes, edges) in sizes {
        let mut net = generate_motifs(MotifParams {
            nodes,
            edges,
            ..MotifParams::default()
        });
        let stream = net.churn(n, 0.3);
        for (name, q) in [
            ("Triangles", mq::TRIANGLES),
            ("FourCycles", mq::FOUR_CYCLES),
        ] {
            // (µs/tx, view memory tuples, tuples emitted during the
            // stream by ⨝ⁿ nodes and by binary join nodes). The emit
            // counters are process-global, so the engines run strictly
            // one at a time with a reset in between; they read zero
            // unless built with the `ivm-stats` feature.
            let run = |wcoj: bool| -> (f64, usize, u64, u64) {
                let mut e = GraphEngine::from_graph(net.graph.clone());
                if wcoj {
                    e.register_view("v", q).unwrap();
                } else {
                    e.register_view_with("v", q, CompileOptions::default(), binary_tree())
                        .unwrap();
                }
                pgq_ivm::stats::counters::reset();
                let t0 = std::time::Instant::now();
                for tx in &stream {
                    e.apply(tx).unwrap();
                }
                let us = t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0;
                let c = pgq_ivm::stats::counters::snapshot();
                let id = e.view_by_name("v").unwrap();
                (
                    us,
                    e.view(id).unwrap().memory_tuples(),
                    c.wcoj_tuples_emitted,
                    c.join_tuples_emitted,
                )
            };
            let (w_us, w_mem, w_emit, _) = run(true);
            let (b_us, b_mem, _, b_emit) = run(false);
            table.row(vec![
                format!("{nodes} / {}", net.graph.edge_count()),
                name.to_string(),
                format!("{w_us:.1}"),
                format!("{b_us:.1}"),
                format!("{:.1}×", b_us / w_us.max(0.001)),
                format!("{w_mem}"),
                format!("{b_mem}"),
                format!("{w_emit}"),
                format!("{b_emit}"),
            ]);
        }
    }
    println!("{}", table.render());
    println!("(emit counters require `--features ivm-stats`; they read 0 otherwise)\n");

    // Hub motif: the sorted-run backend's galloping intersection vs the
    // hash-trie fallback, fusion forced on both so the plan is
    // identical. The gallop/probe counters make the mechanism visible:
    // sorted probe counts track the intersection output, hash probe
    // counts track hub degree.
    println!("### hub motif — sorted-run galloping vs hash tries\n");
    let hub_sizes: &[(usize, usize)] = if quick {
        &[(400, 8)]
    } else {
        &[(2_000, 20), (10_000, 100)]
    };
    let mut table = Table::new(&[
        "hub degree",
        "sorted µs/tx",
        "hash µs/tx",
        "speed-up",
        "sorted probes",
        "hash probes",
        "gallop steps",
    ]);
    for &(spokes, closers) in hub_sizes {
        let mut net = generate_hub_motifs(HubMotifParams {
            spokes,
            closers,
            seed: 11,
        });
        let stream = net.churn(n);
        let run = |sorted: bool| -> (f64, u64, u64) {
            let mut e = GraphEngine::from_graph(net.graph.clone());
            e.register_view_with(
                "v",
                mq::TRIANGLES,
                CompileOptions::default(),
                forced_wcoj(sorted),
            )
            .unwrap();
            pgq_ivm::stats::counters::reset();
            let t0 = std::time::Instant::now();
            for tx in &stream {
                e.apply(tx).unwrap();
            }
            let us = t0.elapsed().as_nanos() as f64 / stream.len() as f64 / 1000.0;
            let c = pgq_ivm::stats::counters::snapshot();
            (us, c.intersect_probes, c.gallop_steps)
        };
        let (s_us, s_probes, s_gallops) = run(true);
        let (h_us, h_probes, _) = run(false);
        table.row(vec![
            format!("{spokes}"),
            format!("{s_us:.1}"),
            format!("{h_us:.1}"),
            format!("{:.1}×", h_us / s_us.max(0.001)),
            format!("{s_probes}"),
            format!("{h_probes}"),
            format!("{s_gallops}"),
        ]);
    }
    println!("{}", table.render());
    println!("(probe/gallop counters require `--features ivm-stats`; they read 0 otherwise)\n");
}
