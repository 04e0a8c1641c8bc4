//! Warm-recovery registration: `dump_states` →
//! `register_with_restore` must reproduce exactly the network a cold
//! registration builds — same sink results *and* same operator
//! memories (checked by maintaining both networks past the restore
//! point and comparing deltas).

use pgq_algebra::fra::Fra;
use pgq_common::intern::Symbol;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::{DataflowNetwork, RegisterOptions, RestoreStates};

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn scan(var: &str, label: &str) -> Fra {
    Fra::ScanVertices {
        var: var.into(),
        labels: vec![s(label)],
        props: vec![],
    }
}

fn edges(src: &str, dst: &str, ty: &str) -> Fra {
    Fra::ScanEdges {
        src: src.into(),
        edge: "e".into(),
        dst: dst.into(),
        types: vec![s(ty)],
        src_labels: vec![],
        dst_labels: vec![],
        src_props: vec![],
        edge_props: vec![],
        dst_props: vec![],
        dir: pgq_common::dir::Direction::Out,
    }
}

/// A join plan with downstream distinct — exercises Join, scans and
/// Distinct restore paths.
fn join_plan() -> Fra {
    Fra::Distinct {
        input: Box::new(Fra::HashJoin {
            left: Box::new(scan("a", "A")),
            right: Box::new(edges("a", "b", "R")),
            left_keys: vec![0],
            right_keys: vec![0],
            value_keys: vec![],
        }),
    }
}

fn seed_graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut tx = Transaction::new();
    let mut vs = Vec::new();
    for i in 0..6 {
        let label = if i % 2 == 0 { "A" } else { "B" };
        vs.push(tx.create_vertex([s(label)], Properties::new()));
    }
    for i in 0..5 {
        tx.create_edge(vs[i], vs[i + 1], s("R"), Properties::new());
    }
    g.apply(&tx).unwrap();
    g
}

fn results_of(net: &DataflowNetwork, sid: pgq_ivm::SinkId) -> Vec<(String, i64)> {
    let mut rows: Vec<(String, i64)> = net
        .view(sid)
        .results()
        .into_iter()
        .map(|(t, m)| (format!("{t}"), m))
        .collect();
    rows.sort();
    rows
}

#[test]
fn restore_reproduces_cold_registration() {
    let g = seed_graph();
    let plan = join_plan();

    let mut cold = DataflowNetwork::new();
    let cold_sid = cold.register("v", &plan, &g);
    let states = cold.dump_states();
    assert!(!states.is_empty());

    let mut warm = DataflowNetwork::new();
    let warm_sid = warm.register_with_restore("v", &plan, &g, RegisterOptions::default(), &states);
    assert_eq!(results_of(&cold, cold_sid), results_of(&warm, warm_sid));

    // The real test: operator *memories* must match, which only shows
    // up when maintenance probes them. Drive identical transactions
    // through both networks and compare.
    let mut g2 = g.clone();
    let mut tx = Transaction::new();
    let a = tx.create_vertex([s("A")], Properties::new());
    let ids: Vec<_> = g2.vertex_ids().collect();
    let tgt = *ids.iter().max().unwrap();
    tx.create_edge(a, tgt, s("R"), Properties::new());
    let events = g2.apply(&tx).unwrap();
    cold.on_transaction(&g2, &events);
    warm.on_transaction(&g2, &events);
    assert_eq!(results_of(&cold, cold_sid), results_of(&warm, warm_sid));
}

#[test]
fn empty_states_degrade_to_cold_start() {
    let g = seed_graph();
    let plan = join_plan();

    let mut cold = DataflowNetwork::new();
    let cold_sid = cold.register("v", &plan, &g);

    let mut warm = DataflowNetwork::new();
    let warm_sid = warm.register_with_restore(
        "v",
        &plan,
        &g,
        RegisterOptions::default(),
        &RestoreStates::new(),
    );
    assert_eq!(results_of(&cold, cold_sid), results_of(&warm, warm_sid));
}

#[test]
fn check_mismatch_is_a_miss_not_a_corruption() {
    let g = seed_graph();
    let plan = join_plan();

    let mut cold = DataflowNetwork::new();
    let cold_sid = cold.register("v", &plan, &g);

    // Re-key every stored bag under a wrong check hash: every lookup
    // must miss and recovery must silently cold-start — never restore
    // foreign state.
    let mut poisoned = RestoreStates::new();
    for (fp, check, bag) in cold.dump_states().iter() {
        poisoned.insert(fp, check ^ 0xFFFF_FFFF, bag.to_vec());
    }
    let mut warm = DataflowNetwork::new();
    let warm_sid =
        warm.register_with_restore("v", &plan, &g, RegisterOptions::default(), &poisoned);
    assert_eq!(results_of(&cold, cold_sid), results_of(&warm, warm_sid));
}

#[test]
fn dump_states_roundtrips_through_iter() {
    let g = seed_graph();
    let mut net = DataflowNetwork::new();
    net.register("v", &join_plan(), &g);
    let states = net.dump_states();
    let mut rebuilt = RestoreStates::new();
    for (fp, check, bag) in states.iter() {
        rebuilt.insert(fp, check, bag.to_vec());
        assert_eq!(states.lookup(fp, check), Some(bag));
        assert_eq!(states.lookup(fp, check ^ 1), None);
    }
    assert_eq!(rebuilt.len(), states.len());
}
