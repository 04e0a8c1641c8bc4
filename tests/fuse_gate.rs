//! Regression tests for the planner's catalog-driven fuse/don't-fuse
//! decision over cyclic regions, pinned at the motif scales the retired
//! `report` tables and `motifs` bench suite measured, plus the
//! intermediate-row counts that made the ⨝ⁿ case there.
//!
//! The decision is a pure function of the region structure and the
//! statistics snapshot, and the motif/hub generators are seeded, so
//! these assertions are deterministic. They encode the calibration
//! contract behind the numbers frozen in BENCH.json: triangles fuse at
//! the measured scales (the ⨝ⁿ node wins there), four-cycles stay on
//! the binary join tree (the fused node measured 0.7–0.8× there), and
//! hub-skewed catalogs always fuse (wedge blow-up is the binding cost).
//! The end-to-end measure of the fused node is perfbench's `motif_skew`.
//! A forced ⨝ⁿ and a binary tree are reference twins registered on a
//! network (`tests/twins`).

use pgq_core::GraphEngine;
use pgq_ivm::RegisterOptions;
use pgq_workloads::motifs::{
    generate_hub_motifs, generate_motifs, queries, HubMotifParams, MotifParams,
};

mod twins;
use twins::{binary, forced, Twins};

/// The Stage-4 `wcoj:` decision line of EXPLAIN on `query` over `engine`.
fn decision_line(engine: &GraphEngine, query: &str) -> String {
    let explain = engine.explain(query).unwrap();
    explain
        .lines()
        .find(|l| l.starts_with("wcoj: cyclic region"))
        .unwrap_or_else(|| panic!("no fuse decision in EXPLAIN output:\n{explain}"))
        .to_string()
}

fn motif_engine(nodes: usize, edges: usize) -> GraphEngine {
    let net = generate_motifs(MotifParams {
        nodes,
        edges,
        ..MotifParams::default()
    });
    GraphEngine::from_graph(net.graph)
}

#[test]
fn triangles_fuse_at_certified_scales() {
    for (nodes, edges) in [(300, 900), (1200, 6000)] {
        let line = decision_line(&motif_engine(nodes, edges), queries::TRIANGLES);
        assert!(
            line.ends_with("fused ⨝ⁿ"),
            "triangles at {nodes}/{edges} should fuse: {line}"
        );
    }
}

#[test]
fn four_cycles_stay_binary_at_certified_scales() {
    for (nodes, edges) in [(300, 900), (1200, 6000)] {
        let line = decision_line(&motif_engine(nodes, edges), queries::FOUR_CYCLES);
        assert!(
            line.ends_with("binary join tree"),
            "4-cycles at {nodes}/{edges} should stay binary: {line}"
        );
    }
}

#[test]
fn hub_catalog_fuses_triangles() {
    let net = generate_hub_motifs(HubMotifParams::quick());
    let engine = GraphEngine::from_graph(net.graph);
    let line = decision_line(&engine, queries::TRIANGLES);
    assert!(
        line.ends_with("fused ⨝ⁿ"),
        "hub-skewed catalog should fuse triangles: {line}"
    );
}

#[test]
fn explain_shows_both_estimates() {
    let line = decision_line(&motif_engine(300, 900), queries::TRIANGLES);
    assert!(
        line.contains("n-ary ≈") && line.contains("vs binary ≈") && line.contains("mem ≈"),
        "decision line should carry both cost and memory estimates: {line}"
    );
}

#[test]
fn forced_registration_fuses_below_the_gate() {
    // At quick scale the gate keeps triangles binary (the catalog says
    // the intersection overhead is not paid back)…
    let net = generate_motifs(MotifParams::quick());
    let mut engine = GraphEngine::from_graph(net.graph.clone());
    let line = decision_line(&engine, queries::TRIANGLES);
    assert!(
        line.ends_with("binary join tree"),
        "quick-scale triangles should stay binary: {line}"
    );
    // …but a forced registration on a network still pins the ⨝ⁿ node
    // (the differential oracles rely on this), and the fused view
    // maintains the same rows as the engine's cost-based one.
    let mut twins = Twins::new(net.graph.clone());
    twins.register("forced", queries::TRIANGLES, forced(true));
    let summaries = twins.network().node_summaries();
    assert!(
        summaries.iter().any(|n| n.label.starts_with("⨝ⁿ")),
        "{summaries:?}"
    );
    let gated = engine.register_view("gated", queries::TRIANGLES).unwrap();
    assert!(
        engine
            .network()
            .node_summaries()
            .iter()
            .all(|n| !n.label.starts_with("⨝ⁿ")),
        "the gated view keeps the binary tree"
    );
    let mut net = net;
    for tx in net.churn(40, 0.3) {
        engine.apply(&tx).unwrap();
        twins.apply(&tx);
    }
    assert_eq!(
        twins.results("forced"),
        engine.view(gated).unwrap().results()
    );
}

/// The intermediate-row evidence behind the worst-case-optimality claim,
/// in counts: under the same motif churn, a binary triangle tree's joins
/// emit every wedge the churn touches, a number that grows with |E| on
/// the skewed motif graph, while the fused ⨝ⁿ node emits exactly the
/// triangle instances the churn changes.
#[test]
fn binary_join_rows_grow_with_edges_while_fused_rows_track_motifs() {
    let mut last_binary = 0;
    for (nodes, edges) in [(60, 150), (120, 400), (300, 900)] {
        let mut net = generate_motifs(MotifParams {
            nodes,
            edges,
            ..MotifParams::default()
        });
        let stream = net.churn(30, 0.3);
        // (binary join rows, ⨝ⁿ rows, Σ |multiplicity| of the view's
        // deltas) over the stream.
        let run = |options: RegisterOptions| {
            let mut twins = Twins::new(net.graph.clone());
            let sink = twins.register("v", queries::TRIANGLES, options);
            let before = twins.network().counters();
            let mut changed = 0;
            for tx in &stream {
                twins.apply(tx);
                let d = twins.network().last_delta(sink);
                changed += d.iter().map(|(_, m)| m.unsigned_abs()).sum::<u64>();
            }
            let after = twins.network().counters();
            (
                after.join_tuples_emitted - before.join_tuples_emitted,
                after.wcoj_tuples_emitted - before.wcoj_tuples_emitted,
                changed,
            )
        };
        let (binary, _, motifs) = run(binary());
        let (fused_joins, fused, fused_motifs) = run(forced(true));
        let at = format!("{nodes}/{edges}");
        assert_eq!(
            motifs, fused_motifs,
            "{at}: both plans change the same rows"
        );
        assert_eq!(
            (fused_joins, fused),
            (0, motifs),
            "{at}: ⨝ⁿ emits motifs only"
        );
        assert!(binary > fused, "{at}: binary {binary} vs fused {fused}");
        assert!(
            binary > last_binary,
            "{at}: binary rows {binary} must grow with |E|"
        );
        last_binary = binary;
    }
}
