//! Cyclic-motif workload for the worst-case optimal join experiments.
//!
//! Cyclic patterns — triangles, four-cycles — are where binary join
//! trees lose worst-case optimality: a triangle query planned as two
//! binary joins materialises every *wedge* (directed 2-path), which is
//! Θ(Σ deg²) on skewed graphs, while the AGM bound for triangle output
//! is only |E|^{3/2}. This generator builds exactly that adversarial
//! shape:
//!
//! * `N` vertices and a **skew-degree** `E` edge set (endpoint choice is
//!   biased toward low vertex indices, giving a few heavy out-hubs whose
//!   wedge counts dominate);
//! * a tunable fraction of edge insertions that **close a wedge** into a
//!   directed triangle, so triangle density is controlled independently
//!   of edge count;
//! * a seeded churn script of single-edge transactions (inserts with the
//!   same wedge-closing bias, plus deletions of live edges) shared by
//!   the fuse-gate tests, the stress tier, and the differential oracle.
//!
//! [`queries::TRIANGLES`] / [`queries::FOUR_CYCLES`] are the cyclic
//! views the planner fuses into one ⨝ⁿ node; the `_RENAMED` twins
//! differ only in variable names and must hash-cons onto the same node.

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scale parameters of the motif workload.
#[derive(Clone, Copy, Debug)]
pub struct MotifParams {
    /// Vertices (all labelled `N`).
    pub nodes: usize,
    /// Edge-insertion operations used to seed the graph (wedge-closing
    /// ones add a single closing edge, like every other insertion).
    pub edges: usize,
    /// Probability that an inserted edge closes an existing wedge
    /// `a → b → c` into the directed triangle `a → b → c → a`.
    pub tri_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MotifParams {
    fn default() -> Self {
        MotifParams {
            nodes: 300,
            edges: 900,
            tri_bias: 0.3,
            seed: 7,
        }
    }
}

impl MotifParams {
    /// A smaller instance for CI smoke runs.
    pub fn quick() -> MotifParams {
        MotifParams {
            nodes: 60,
            edges: 150,
            ..MotifParams::default()
        }
    }
}

/// The generated graph plus the handles the churn script draws from.
pub struct MotifGraph {
    /// The graph.
    pub graph: PropertyGraph,
    /// All vertices, in creation order (low indices are the hubs).
    pub nodes: Vec<VertexId>,
    rng: SmallRng,
}

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// Low-index-biased vertex pick (cubic skew: index 0 is the heaviest
/// hub), giving the degree skew that blows up wedge counts.
fn skewed(rng: &mut SmallRng, n: usize) -> usize {
    let u = unit(rng);
    (((u * u * u) * n as f64) as usize).min(n - 1)
}

/// Uniform draw from `[0, 1)`.
fn unit(rng: &mut SmallRng) -> f64 {
    rng.random_range(0..1u64 << 32) as f64 / (1u64 << 32) as f64
}

/// Pick the endpoints of the next inserted edge on `g`: with
/// probability `tri_bias` the closing edge `c → a` of a uniformly
/// chosen existing wedge `a → b → c`, otherwise a skewed random pair.
fn next_edge(
    rng: &mut SmallRng,
    g: &PropertyGraph,
    nodes: &[VertexId],
    tri_bias: f64,
) -> (VertexId, VertexId) {
    if g.edge_count() > 0 && rng.random_bool(tri_bias) {
        // Uniform existing edge a → b, then a uniform out-edge of b.
        let eids: &[EdgeId] = {
            // Deterministic order: pick via the per-vertex adjacency of
            // a skewed source, which is insertion-ordered.
            let a = nodes[skewed(rng, nodes.len())];
            g.out_edges(a)
        };
        if let Some(&e1) = pick(rng, eids) {
            let b = g.edge(e1).expect("listed edge exists").dst;
            if let Some(&e2) = pick(rng, g.out_edges(b)) {
                let c = g.edge(e2).expect("listed edge exists").dst;
                let a = g.edge(e1).expect("listed edge exists").src;
                if c != a {
                    return (c, a);
                }
            }
        }
    }
    // Skewed random pair, self-loops nudged apart.
    let src = nodes[skewed(rng, nodes.len())];
    let mut di = skewed(rng, nodes.len());
    if nodes[di] == src {
        di = (di + 1) % nodes.len();
    }
    (src, nodes[di])
}

fn pick<'a, T>(rng: &mut SmallRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.random_range(0..xs.len())])
    }
}

/// Generate a skew-degree graph with tunable triangle density.
pub fn generate_motifs(params: MotifParams) -> MotifGraph {
    assert!(params.nodes >= 2, "motif graphs need at least two vertices");
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut g = PropertyGraph::new();

    let mut nodes = Vec::with_capacity(params.nodes);
    for i in 0..params.nodes {
        let (v, _) = g.add_vertex(
            [s("N")],
            Properties::from_iter([("id", Value::Int(i as i64))]),
        );
        nodes.push(v);
    }
    for _ in 0..params.edges {
        let (src, dst) = next_edge(&mut rng, &g, &nodes, params.tri_bias);
        g.add_edge(src, dst, s("E"), Properties::new()).unwrap();
    }

    MotifGraph {
        graph: g,
        nodes,
        rng,
    }
}

impl MotifGraph {
    /// Build a seeded churn script of `n` single-operation transactions:
    /// ~60% edge inserts (with the generator's wedge-closing bias, so
    /// churn keeps creating and destroying triangles) and ~40% deletions
    /// of a uniformly chosen live edge. Applies cleanly in order.
    pub fn churn(&mut self, n: usize, tri_bias: f64) -> Vec<Transaction> {
        let mut txs = Vec::with_capacity(n);
        let mut shadow = self.graph.clone();
        let mut live: Vec<EdgeId> = {
            let mut e: Vec<_> = shadow.edge_ids().collect();
            e.sort_unstable();
            e
        };
        for _ in 0..n {
            let mut tx = Transaction::new();
            let delete = !live.is_empty() && self.rng.random_range(0..10u32) < 4;
            if delete {
                let i = self.rng.random_range(0..live.len());
                let e = live.swap_remove(i);
                tx.delete_edge(e);
            } else {
                let (src, dst) = next_edge(&mut self.rng, &shadow, &self.nodes, tri_bias);
                tx.create_edge(src, dst, s("E"), Properties::new());
            }
            let events = shadow.apply(&tx).expect("churn tx applies");
            for ev in &events {
                if let pgq_graph::delta::ChangeEvent::EdgeAdded { id } = ev {
                    live.push(*id);
                }
            }
            txs.push(tx);
        }
        txs
    }
}

/// Scale parameters of the hub workload (see [`generate_hub_motifs`]).
#[derive(Clone, Copy, Debug)]
pub struct HubMotifParams {
    /// Spokes per hub: the in-hub gets this many in-edges, the out-hub
    /// this many out-edges. The galloping claim is certified at
    /// ≥ 10 000.
    pub spokes: usize,
    /// Closing edges `s → in-hub` from the out-hub's spokes — each one
    /// completes a triangle through the bridge. Kept to ~1% of `spokes`
    /// so the intersection output is far smaller than either input.
    pub closers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HubMotifParams {
    fn default() -> Self {
        HubMotifParams {
            spokes: 10_000,
            closers: 100,
            seed: 11,
        }
    }
}

impl HubMotifParams {
    /// A smaller instance for CI smoke runs.
    pub fn quick() -> HubMotifParams {
        HubMotifParams {
            spokes: 400,
            closers: 8,
            ..HubMotifParams::default()
        }
    }
}

/// The hub graph plus the handles its churn script draws from.
pub struct HubMotifGraph {
    /// The graph.
    pub graph: PropertyGraph,
    /// The in-hub `h1`: every first-wave spoke points at it.
    pub hub_in: VertexId,
    /// The out-hub `h2`: it points at every second-wave spoke.
    pub hub_out: VertexId,
    /// The second-wave spokes (closers are drawn from these).
    spokes_out: Vec<VertexId>,
    /// The current bridge edge `h1 → h2` (re-created by churn flaps).
    bridge: EdgeId,
    /// Live closing edges `s → h1`, with their source spoke.
    closer_edges: Vec<(EdgeId, VertexId)>,
    rng: SmallRng,
}

/// Generate the adversarial two-hub graph for the galloping-intersection
/// benchmarks: maintaining [`queries::TRIANGLES`] under a delta on the
/// bridge edge `h1 → h2` intersects `out(h2)` (`spokes` high-id
/// vertices) with `in(h1)` (`spokes` low-id vertices plus ~1% closers
/// drawn from the high range). Both inputs have hub degree, the output
/// is tiny, and the id ranges are segregated — so a sorted-run cursor
/// gallops over the entire low block in O(log) steps while a hash-trie
/// intersection pays one probe per element of a 10k-entry set.
///
/// Shape (all vertices labelled `N`, all edges typed `E`):
/// * first wave: `spokes` vertices `s1_i` with edges `s1_i → h1`;
/// * second wave: `spokes` vertices `s2_j` with edges `h2 → s2_j`
///   (created after the first wave, so their ids sort strictly higher);
/// * `closers` edges `s2_j → h1` from evenly spaced second-wave spokes —
///   each completes the triangle `h1 → h2 → s2_j → h1`;
/// * the bridge `h1 → h2`.
pub fn generate_hub_motifs(params: HubMotifParams) -> HubMotifGraph {
    assert!(params.spokes >= 2, "hub graphs need at least two spokes");
    assert!(
        params.closers <= params.spokes,
        "cannot close more spokes than exist"
    );
    let mut g = PropertyGraph::new();
    let (h1, _) = g.add_vertex([s("N")], Properties::new());
    let (h2, _) = g.add_vertex([s("N")], Properties::new());
    for _ in 0..params.spokes {
        let (v, _) = g.add_vertex([s("N")], Properties::new());
        g.add_edge(v, h1, s("E"), Properties::new()).unwrap();
    }
    let mut spokes_out = Vec::with_capacity(params.spokes);
    for _ in 0..params.spokes {
        let (v, _) = g.add_vertex([s("N")], Properties::new());
        g.add_edge(h2, v, s("E"), Properties::new()).unwrap();
        spokes_out.push(v);
    }
    let mut closer_edges = Vec::with_capacity(params.closers);
    if let Some(stride) = params.spokes.checked_div(params.closers) {
        for k in 0..params.closers {
            let v = spokes_out[k * stride];
            let (e, _) = g.add_edge(v, h1, s("E"), Properties::new()).unwrap();
            closer_edges.push((e, v));
        }
    }
    let (bridge, _) = g.add_edge(h1, h2, s("E"), Properties::new()).unwrap();
    HubMotifGraph {
        graph: g,
        hub_in: h1,
        hub_out: h2,
        spokes_out,
        bridge,
        closer_edges,
        rng: SmallRng::seed_from_u64(params.seed),
    }
}

impl HubMotifGraph {
    /// Build a seeded churn script of `n` single-operation transactions,
    /// deletion-heavy and centred on the expensive deltas: ~40% bridge
    /// flaps (alternating delete/re-create of `h1 → h2`, each of which
    /// re-runs the full hub-degree intersection) and ~60% closer churn
    /// (delete a live closing edge, or re-create one from a random
    /// second-wave spoke — about half and half, so triangles keep
    /// appearing and disappearing). Applies cleanly in order.
    pub fn churn(&mut self, n: usize) -> Vec<Transaction> {
        let mut txs = Vec::with_capacity(n);
        let mut shadow = self.graph.clone();
        let mut bridge_live = Some(self.bridge);
        for _ in 0..n {
            let mut tx = Transaction::new();
            let flap = self.rng.random_range(0..10u32) < 4;
            if flap {
                match bridge_live.take() {
                    Some(e) => {
                        tx.delete_edge(e);
                    }
                    None => {
                        tx.create_edge(self.hub_in, self.hub_out, s("E"), Properties::new());
                    }
                }
            } else {
                let delete = !self.closer_edges.is_empty() && self.rng.random_bool(0.55);
                if delete {
                    let i = self.rng.random_range(0..self.closer_edges.len());
                    let (e, _) = self.closer_edges.swap_remove(i);
                    tx.delete_edge(e);
                } else {
                    let v = self.spokes_out[self.rng.random_range(0..self.spokes_out.len())];
                    tx.create_edge(v, self.hub_in, s("E"), Properties::new());
                }
            }
            let events = shadow.apply(&tx).expect("hub churn tx applies");
            for ev in &events {
                if let pgq_graph::delta::ChangeEvent::EdgeAdded { id } = ev {
                    let d = shadow.edge(*id).expect("created edge exists");
                    if d.src == self.hub_in {
                        bridge_live = Some(*id);
                    } else {
                        self.closer_edges.push((*id, d.src));
                    }
                }
            }
            txs.push(tx);
        }
        txs
    }
}

/// Scale of [`generate_skew_motifs`]; the default is the size the
/// end-to-end benchmark's `motif_skew` workload runs at.
#[derive(Clone, Copy, Debug)]
pub struct SkewMotifParams {
    /// Vertices (all labelled `N`), the two hubs included.
    pub vertices: usize,
    /// Edges between ordinary vertices, endpoints drawn with a
    /// quadratic skew towards low indices.
    pub edges: usize,
    /// Extra edges at each of the two hubs, alternately out and in.
    pub hub_edges: usize,
    /// RNG seed (the wiring; the degree sequence barely moves).
    pub seed: u64,
}

impl Default for SkewMotifParams {
    fn default() -> Self {
        SkewMotifParams {
            vertices: 2_000,
            edges: 8_000,
            hub_edges: 300,
            seed: 7,
        }
    }
}

/// The graph shape of the benchmark's `motif_skew` workload: a directed
/// power-law graph (edge `j` draws both endpoints from the `j`-th of
/// `edges` equal strata, squared, so every seed has the same degree
/// sequence to within one) plus two hubs whose `hub_edges` neighbours
/// are dealt in turn from one evenly spaced grid. One edge in ten of
/// that universe is left out. All vertices `N`, all edges `E`; the hubs
/// are the first two entries of `nodes`.
pub fn generate_skew_motifs(params: SkewMotifParams) -> MotifGraph {
    const HUBS: usize = 2;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut g = PropertyGraph::new();
    let nodes: Vec<VertexId> = (0..params.vertices)
        .map(|_| g.add_vertex([s("N")], Properties::new()).0)
        .collect();
    let n = params.vertices - HUBS;
    assert!(
        HUBS * params.hub_edges <= n,
        "hub neighbourhoods must not wrap onto each other"
    );
    let stratum = |j: usize, rng: &mut SmallRng| {
        let u = (j as f64 + unit(rng)) / params.edges as f64;
        HUBS + ((n as f64 * u * u) as usize).min(n - 1)
    };
    let mut targets: Vec<usize> = (0..params.edges).map(|j| stratum(j, &mut rng)).collect();
    for j in (1..targets.len()).rev() {
        targets.swap(j, rng.random_range(0..j + 1));
    }
    let mut universe: Vec<(usize, usize)> = Vec::new();
    for (j, &dst) in targets.iter().enumerate() {
        let src = stratum(j, &mut rng);
        if src != dst {
            universe.push((src, dst));
        }
    }
    let slots = HUBS * params.hub_edges;
    let offset = rng.random_range(0..n);
    for hub in 0..HUBS {
        for i in 0..params.hub_edges {
            let other = HUBS + (offset + (i * HUBS + hub) * n / slots) % n;
            universe.push(if i % 2 == 0 {
                (hub, other)
            } else {
                (other, hub)
            });
        }
    }
    for (src, dst) in universe {
        if rng.random_range(0..10u32) != 0 {
            g.add_edge(nodes[src], nodes[dst], s("E"), Properties::new())
                .unwrap();
        }
    }
    MotifGraph {
        graph: g,
        nodes,
        rng,
    }
}

/// The standing cyclic-motif queries.
pub mod queries {
    /// Directed triangles — the canonical cyclic pattern. The planner
    /// fuses all three `E` relations (plus the vertex scan) into one
    /// ⨝ⁿ worst-case optimal node.
    pub const TRIANGLES: &str = "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(a) RETURN a, b, c";

    /// [`TRIANGLES`] with every variable renamed: must hash-cons onto
    /// the same ⨝ⁿ node (zero new operators at registration).
    pub const TRIANGLES_RENAMED: &str =
        "MATCH (x:N)-[:E]->(y:N)-[:E]->(z:N)-[:E]->(x) RETURN x, y, z";

    /// Directed four-cycles (the "diamond" motif).
    pub const FOUR_CYCLES: &str =
        "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(d:N)-[:E]->(a) RETURN a, b, c, d";

    /// The number of directed wedges — the intermediate both cyclic
    /// views above are built on.
    pub const WEDGE_COUNT: &str = "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N) RETURN count(*) AS wedges";

    /// The three standing views of the benchmark's `motif_skew`.
    pub const MOTIF_SKEW: [&str; 3] = [TRIANGLES, FOUR_CYCLES, WEDGE_COUNT];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_skewed() {
        let a = generate_motifs(MotifParams::default());
        let b = generate_motifs(MotifParams::default());
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        // Low-index hubs dominate out-degree.
        let hub_out: usize = a.nodes[..a.nodes.len() / 10]
            .iter()
            .map(|&v| a.graph.out_edges(v).len())
            .sum();
        assert!(
            hub_out * 3 > a.graph.edge_count(),
            "first decile should hold well over a third of the out-edges"
        );
    }

    #[test]
    fn tri_bias_raises_triangle_count() {
        let count_triangles = |g: &PropertyGraph| -> usize {
            let mut n = 0;
            for e1 in g.edge_ids() {
                let d1 = g.edge(e1).unwrap();
                for &e2 in g.out_edges(d1.dst) {
                    let d2 = g.edge(e2).unwrap();
                    for &e3 in g.out_edges(d2.dst) {
                        if g.edge(e3).unwrap().dst == d1.src {
                            n += 1;
                        }
                    }
                }
            }
            n
        };
        let dense = generate_motifs(MotifParams {
            tri_bias: 0.5,
            ..MotifParams::default()
        });
        let sparse = generate_motifs(MotifParams {
            tri_bias: 0.0,
            ..MotifParams::default()
        });
        assert!(
            count_triangles(&dense.graph) > 2 * count_triangles(&sparse.graph),
            "wedge-closing bias should multiply the triangle count"
        );
    }

    #[test]
    fn churn_applies_cleanly_and_deletes() {
        let mut net = generate_motifs(MotifParams::quick());
        let script = net.churn(80, 0.3);
        assert!(
            script
                .iter()
                .any(|tx| matches!(tx.ops()[0], pgq_graph::tx::TxOp::DeleteEdge { .. })),
            "churn must include deletions"
        );
        let mut g = net.graph.clone();
        for tx in &script {
            g.apply(tx).expect("churn tx applies");
        }
    }

    #[test]
    fn hub_graph_has_hub_degrees_and_triangles() {
        let params = HubMotifParams::quick();
        let net = generate_hub_motifs(params);
        assert_eq!(
            net.graph.in_edges(net.hub_in).len(),
            params.spokes + params.closers
        );
        assert_eq!(net.graph.out_edges(net.hub_out).len(), params.spokes);
        // Exactly one triangle per closer: h1 → h2 → s2 → h1.
        let mut triangles = 0;
        for &e2 in net.graph.out_edges(net.hub_out) {
            let s2 = net.graph.edge(e2).unwrap().dst;
            for &e3 in net.graph.out_edges(s2) {
                if net.graph.edge(e3).unwrap().dst == net.hub_in {
                    triangles += 1;
                }
            }
        }
        assert_eq!(triangles, params.closers);
    }

    #[test]
    fn hub_churn_applies_cleanly_and_is_deletion_heavy() {
        let mut net = generate_hub_motifs(HubMotifParams::quick());
        let script = net.churn(120);
        let deletes = script
            .iter()
            .filter(|tx| matches!(tx.ops()[0], pgq_graph::tx::TxOp::DeleteEdge { .. }))
            .count();
        assert!(
            deletes * 3 >= script.len(),
            "hub churn should be deletion-heavy, got {deletes}/120 deletions"
        );
        let mut g = net.graph.clone();
        for tx in &script {
            g.apply(tx).expect("hub churn tx applies");
        }
        // Determinism: same params, same script.
        let mut again = generate_hub_motifs(HubMotifParams::quick());
        let script2 = again.churn(120);
        let render = |txs: &[Transaction]| {
            format!("{:?}", txs.iter().map(Transaction::ops).collect::<Vec<_>>())
        };
        assert_eq!(render(&script2), render(&script));
    }
}
