//! Decomposes per-transaction IVM cost for the two certified suites:
//! graph mutation vs. shared-network propagation (which now folds
//! event routing, operator deltas, consolidation and result-map upkeep
//! into one topological pass). A developer tool for directing perf
//! work — not an experiment table.
//!
//! Run with `cargo run --release --example profile_hotpath`.

use std::time::{Duration, Instant};

use pgq_algebra::pipeline::compile_query;
use pgq_algebra::CompiledQuery;
use pgq_ivm::DataflowNetwork;
use pgq_parser::parse_query;
use pgq_workloads::social::{generate_social, queries as sq, SocialParams};
use pgq_workloads::trees::reply_tree;
use pgq_workloads::EXAMPLE_QUERY;

fn main() {
    social();
    social_fine();
    transitive();
}

/// Compile a query (panicking on error — profile inputs are fixed).
fn compile(query: &str) -> CompiledQuery {
    compile_query(&parse_query(query).expect("parses")).expect("compiles")
}

/// Decompose the SAME_LANG_THREAD network stage by stage: the scan+⋈*
/// subtree (maintained as its own network) vs. the full plan, isolating
/// what the projection/filter layers above the traversal cost.
fn social_fine() {
    use pgq_algebra::Fra;
    let mut net = generate_social(SocialParams::scale(0.5, 42));
    let stream = net.update_stream(50, (4, 2, 3, 1));
    let compiled = compile(sq::SAME_LANG_THREAD);

    // Expect Project → Filter → Project → VarLengthJoin.
    let Fra::Project { input, .. } = &compiled.fra else {
        println!("unexpected plan shape (no outer Project)");
        return;
    };
    let Fra::Filter { input: mid, .. } = input.as_ref() else {
        println!("unexpected plan shape (no Filter)");
        return;
    };
    let Fra::Project { input: vl, .. } = mid.as_ref() else {
        println!("unexpected plan shape (no mid Project)");
        return;
    };

    let rounds = 20;
    let mut t_vl = Duration::ZERO;
    let mut t_full = Duration::ZERO;
    for _ in 0..rounds {
        let mut g = net.graph.clone();
        let mut sub = DataflowNetwork::new();
        sub.register("sub", vl, &g);
        let mut full = DataflowNetwork::new();
        full.register("full", &compiled.fra, &g);
        for tx in &stream {
            let events = g.apply(tx).unwrap();
            let t0 = Instant::now();
            sub.on_transaction(&g, &events);
            let t1 = Instant::now();
            full.on_transaction(&g, &events);
            let t2 = Instant::now();
            t_vl += t1 - t0;
            t_full += t2 - t1;
        }
    }
    let per_tx = |d: Duration| d.as_nanos() as f64 / (rounds * stream.len()) as f64 / 1000.0;
    println!("social_ivm fine (us/tx):");
    println!("  scan+⋈* subtree   {:8.2}", per_tx(t_vl));
    println!("  full plan         {:8.2}", per_tx(t_full));
    println!("  π/σ/π overhead    {:8.2}", per_tx(t_full) - per_tx(t_vl));
}

fn social() {
    let mut net = generate_social(SocialParams::scale(0.5, 42));
    let stream = net.update_stream(50, (4, 2, 3, 1));
    let compiled = compile(sq::SAME_LANG_THREAD);

    let rounds = 20;
    let mut t_graph = Duration::ZERO;
    let mut t_network = Duration::ZERO;
    for _ in 0..rounds {
        let mut g = net.graph.clone();
        let mut view = DataflowNetwork::new();
        view.register("v", &compiled.fra, &g);
        for tx in &stream {
            let t0 = Instant::now();
            let events = g.apply(tx).unwrap();
            let t1 = Instant::now();
            view.on_transaction(&g, &events);
            let t2 = Instant::now();
            t_graph += t1 - t0;
            t_network += t2 - t1;
        }
    }
    let per_tx = |d: Duration| d.as_nanos() as f64 / (rounds * stream.len()) as f64 / 1000.0;
    println!("social_ivm (us/tx):");
    println!("  graph.apply       {:8.2}", per_tx(t_graph));
    println!("  network pass      {:8.2}", per_tx(t_network));
}

fn transitive() {
    let tree = reply_tree(6, 2);
    let root_edge = tree.edges[0];
    let data = tree.graph.edge(root_edge).unwrap().clone();
    let compiled = compile(EXAMPLE_QUERY);

    let rounds = 40;
    let mut t_graph = Duration::ZERO;
    let mut t_network = Duration::ZERO;
    for _ in 0..rounds {
        let mut g = tree.graph.clone();
        let mut view = DataflowNetwork::new();
        view.register("v", &compiled.fra, &g);
        for step in 0..2 {
            let mut tx = pgq_graph::tx::Transaction::new();
            if step == 0 {
                tx.delete_edge(root_edge);
            } else {
                tx.create_edge(data.src, data.dst, data.ty, data.props.clone());
            }
            let t0 = Instant::now();
            let events = g.apply(&tx).unwrap();
            let t1 = Instant::now();
            view.on_transaction(&g, &events);
            let t2 = Instant::now();
            t_graph += t1 - t0;
            t_network += t2 - t1;
        }
    }
    let per_tx = |d: Duration| d.as_nanos() as f64 / (rounds * 2) as f64 / 1000.0;
    println!("transitive root churn (us/tx):");
    println!("  graph.apply       {:8.2}", per_tx(t_graph));
    println!("  network pass      {:8.2}", per_tx(t_network));
}
