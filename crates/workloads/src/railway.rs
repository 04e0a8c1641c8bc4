//! Train-Benchmark-inspired railway validation workload.
//!
//! **Substitution note** (see DESIGN.md): the paper motivates IVM with
//! continuous well-formedness validation and cites the Train Benchmark
//! \[30\], whose generator/faults we re-create synthetically. One deliberate
//! deviation: the original benchmark's constraint queries use *negative*
//! conditions (NEG/antijoin), but the paper's maintainable fragment has no
//! OPTIONAL MATCH / NOT EXISTS (explicitly listed as future work), so we
//! use the benchmark's *positive* queries (PosLength, SwitchSet,
//! ConnectedSegments) plus a positive RouteSensor variant that finds
//! consistent route→switch→sensor chains; fault injection makes view
//! rows appear/disappear just as repairs do in the original benchmark.
//!
//! Schema (vertices): `Route`, `Semaphore`, `SwitchPosition`, `Switch`,
//! `Sensor`, `Segment`. Edges: `entry` (Route→Semaphore), `follows`
//! (Route→SwitchPosition), `target` (SwitchPosition→Switch), `monitoredBy`
//! (Switch/Segment→Sensor), `requires` (Route→Sensor), `connectsTo`
//! (Segment→Segment).

use pgq_common::ids::VertexId;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// Scale parameters (the Train Benchmark scales by route count).
#[derive(Clone, Copy, Debug)]
pub struct RailwayParams {
    /// Number of routes.
    pub routes: usize,
    /// Switch positions per route.
    pub switches_per_route: usize,
    /// Segments per sensor region.
    pub segments_per_sensor: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RailwayParams {
    fn default() -> Self {
        RailwayParams {
            routes: 20,
            switches_per_route: 5,
            segments_per_sensor: 4,
            seed: 7,
        }
    }
}

impl RailwayParams {
    /// Size-2^k constructor matching the Train Benchmark's doubling
    /// scale.
    pub fn size(k: u32, seed: u64) -> RailwayParams {
        RailwayParams {
            routes: 1usize << k,
            switches_per_route: 5,
            segments_per_sensor: 4,
            seed,
        }
    }
}

/// Generated railway model plus handles for the fault stream.
pub struct Railway {
    /// The graph.
    pub graph: PropertyGraph,
    /// All routes.
    pub routes: Vec<VertexId>,
    /// All switches.
    pub switches: Vec<VertexId>,
    /// All switch positions.
    pub switch_positions: Vec<VertexId>,
    /// All segments.
    pub segments: Vec<VertexId>,
    /// All semaphores.
    pub semaphores: Vec<VertexId>,
    rng: SmallRng,
}

/// Generate a railway model.
pub fn generate_railway(params: RailwayParams) -> Railway {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut g = PropertyGraph::new();
    let mut routes = Vec::new();
    let mut switches = Vec::new();
    let mut switch_positions = Vec::new();
    let mut segments = Vec::new();
    let mut semaphores = Vec::new();

    for r in 0..params.routes {
        let (route, _) = g.add_vertex(
            [s("Route")],
            Properties::from_iter([("id", Value::Int(r as i64))]),
        );
        routes.push(route);
        let (sem, _) = g.add_vertex(
            [s("Semaphore")],
            Properties::from_iter([(
                "signal",
                Value::str(if rng.random_bool(0.5) { "GO" } else { "STOP" }),
            )]),
        );
        semaphores.push(sem);
        g.add_edge(route, sem, s("entry"), Properties::new())
            .unwrap();

        for _ in 0..params.switches_per_route {
            let position = if rng.random_bool(0.5) {
                "LEFT"
            } else {
                "RIGHT"
            };
            let (swp, _) = g.add_vertex(
                [s("SwitchPosition")],
                Properties::from_iter([("position", Value::str(position))]),
            );
            switch_positions.push(swp);
            g.add_edge(route, swp, s("follows"), Properties::new())
                .unwrap();
            let (sw, _) = g.add_vertex(
                [s("Switch")],
                Properties::from_iter([(
                    "currentPosition",
                    Value::str(if rng.random_bool(0.8) {
                        position
                    } else {
                        "FAILURE"
                    }),
                )]),
            );
            switches.push(sw);
            g.add_edge(swp, sw, s("target"), Properties::new()).unwrap();
            // Sensor monitoring the switch; the route requires it
            // (the consistent configuration RouteSensor checks for).
            let (sensor, _) = g.add_vertex([s("Sensor")], Properties::new());
            g.add_edge(sw, sensor, s("monitoredBy"), Properties::new())
                .unwrap();
            if rng.random_bool(0.9) {
                g.add_edge(route, sensor, s("requires"), Properties::new())
                    .unwrap();
            }
            // Segment chain under this sensor.
            let mut prev: Option<VertexId> = None;
            for _ in 0..params.segments_per_sensor {
                let (seg, _) = g.add_vertex(
                    [s("Segment")],
                    Properties::from_iter([("length", Value::Int(rng.random_range(1..1000)))]),
                );
                g.add_edge(seg, sensor, s("monitoredBy"), Properties::new())
                    .unwrap();
                if let Some(p) = prev {
                    g.add_edge(p, seg, s("connectsTo"), Properties::new())
                        .unwrap();
                }
                segments.push(seg);
                prev = Some(seg);
            }
        }
    }
    Railway {
        graph: g,
        routes,
        switches,
        switch_positions,
        segments,
        semaphores,
        rng,
    }
}

impl Railway {
    /// Build a seeded fault/repair stream of `n` single-op transactions.
    pub fn fault_stream(&mut self, n: usize) -> Vec<Transaction> {
        let mut txs = Vec::with_capacity(n);
        let mut shadow = self.graph.clone();
        for i in 0..n {
            let mut tx = Transaction::new();
            match i % 7 {
                0 => {
                    let seg = self.segments[self.rng.random_range(0..self.segments.len())];
                    tx.set_vertex_prop(
                        seg,
                        s("length"),
                        Value::Int(-(self.rng.random_range(0..5) as i64)),
                    );
                }
                1 => {
                    let seg = self.segments[self.rng.random_range(0..self.segments.len())];
                    tx.set_vertex_prop(
                        seg,
                        s("length"),
                        Value::Int(self.rng.random_range(1..1000)),
                    );
                }
                2 => {
                    let sw = self.switches[self.rng.random_range(0..self.switches.len())];
                    tx.set_vertex_prop(sw, s("currentPosition"), Value::str("FAILURE"));
                }
                3 => {
                    let sw = self.switches[self.rng.random_range(0..self.switches.len())];
                    let pos = if self.rng.random_bool(0.5) {
                        "LEFT"
                    } else {
                        "RIGHT"
                    };
                    tx.set_vertex_prop(sw, s("currentPosition"), Value::str(pos));
                }
                4 => {
                    let sem = self.semaphores[self.rng.random_range(0..self.semaphores.len())];
                    let sig = if self.rng.random_bool(0.5) {
                        "GO"
                    } else {
                        "STOP"
                    };
                    tx.set_vertex_prop(sem, s("signal"), Value::str(sig));
                }
                5 => {
                    // Drop or restore a `requires` edge (RouteSensor
                    // violations appear/disappear).
                    let candidates: Vec<_> = shadow.edges_with_type(s("requires")).to_vec();
                    if !candidates.is_empty() && self.rng.random_bool(0.6) {
                        let e = candidates[self.rng.random_range(0..candidates.len())];
                        tx.delete_edge(e);
                    } else {
                        // Wire a random route to a sensor of one of its
                        // switches (repair-flavoured insertion).
                        let r = self.routes[self.rng.random_range(0..self.routes.len())];
                        let sw = self.switches[self.rng.random_range(0..self.switches.len())];
                        if let Some(&mon) = shadow
                            .out_edges(sw)
                            .iter()
                            .find(|&&e| shadow.edge(e).is_some_and(|d| d.ty == s("monitoredBy")))
                        {
                            let sen = shadow.edge(mon).expect("listed").dst;
                            tx.create_edge(r, sen, s("requires"), Properties::new());
                        } else {
                            let seg = self.segments[self.rng.random_range(0..self.segments.len())];
                            tx.set_vertex_prop(
                                seg,
                                s("length"),
                                Value::Int(self.rng.random_range(1..1000)),
                            );
                        }
                    }
                }
                _ => {
                    // Disconnect a random connectsTo edge if any remain.
                    let candidates: Vec<_> = shadow.edges_with_type(s("connectsTo")).to_vec();
                    if let Some(&e) =
                        candidates.get(self.rng.random_range(0..candidates.len().max(1)))
                    {
                        tx.delete_edge(e);
                    } else {
                        let seg = self.segments[self.rng.random_range(0..self.segments.len())];
                        tx.set_vertex_prop(
                            seg,
                            s("length"),
                            Value::Int(self.rng.random_range(1..1000)),
                        );
                    }
                }
            }
            shadow.apply(&tx).expect("fault stream applies");
            txs.push(tx);
        }
        txs
    }
}

/// The Train-Benchmark-style validation queries (positive variants — see
/// the substitution note in the module docs).
pub mod queries {
    /// PosLength: segments with non-positive length (the original
    /// benchmark's filter query, verbatim semantics).
    pub const POS_LENGTH: &str = "MATCH (seg:Segment) WHERE seg.length <= 0 RETURN seg, seg.length";
    /// SwitchSet: routes whose entry semaphore shows GO but whose switch
    /// stands in a different position than the route follows.
    pub const SWITCH_SET: &str = "MATCH (r:Route)-[:entry]->(sem:Semaphore) \
         MATCH (r)-[:follows]->(swp:SwitchPosition)-[:target]->(sw:Switch) \
         WHERE sem.signal = 'GO' AND sw.currentPosition <> swp.position \
         RETURN r, sw";
    /// RouteSensor (positive variant): consistent
    /// route→switchposition→switch→sensor chains where the route requires
    /// the monitoring sensor.
    pub const ROUTE_SENSOR: &str =
        "MATCH (r:Route)-[:follows]->(swp:SwitchPosition)-[:target]->(sw:Switch)\
         -[:monitoredBy]->(sen:Sensor) MATCH (r)-[:requires]->(sen) \
         RETURN r, swp, sw, sen";
    /// ConnectedSegments: chains of three connected segments monitored by
    /// the same sensor (shortened from the benchmark's six for tractable
    /// join depth).
    pub const CONNECTED_SEGMENTS: &str =
        "MATCH (s1:Segment)-[:connectsTo]->(s2:Segment)-[:connectsTo]->(s3:Segment) \
         MATCH (s1)-[:monitoredBy]->(sen:Sensor) MATCH (s2)-[:monitoredBy]->(sen) \
         MATCH (s3)-[:monitoredBy]->(sen) RETURN s1, s2, s3, sen";

    // ---- the Train Benchmark's *negative* queries, verbatim semantics —
    // expressible thanks to the antijoin extension (`NOT exists(...)`).

    /// RouteSensor (original negative form): a route follows a switch
    /// position whose switch is monitored by a sensor the route does
    /// *not* require.
    pub const ROUTE_SENSOR_NEG: &str =
        "MATCH (r:Route)-[:follows]->(swp:SwitchPosition)-[:target]->(sw:Switch)\
         -[:monitoredBy]->(sen:Sensor) \
         WHERE NOT exists((r)-[:requires]->(sen)) \
         RETURN r, swp, sw, sen";
    /// SwitchMonitored (original negative form): switches without any
    /// monitoring sensor.
    pub const SWITCH_MONITORED_NEG: &str =
        "MATCH (sw:Switch) WHERE NOT exists((sw)-[:monitoredBy]->(:Sensor)) RETURN sw";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_scaled() {
        let a = generate_railway(RailwayParams::default());
        let b = generate_railway(RailwayParams::default());
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
        let big = generate_railway(RailwayParams {
            routes: 40,
            ..Default::default()
        });
        assert!(big.graph.vertex_count() > a.graph.vertex_count());
    }

    #[test]
    fn fault_stream_applies() {
        let mut rw = generate_railway(RailwayParams::default());
        let stream = rw.fault_stream(30);
        let mut g = rw.graph.clone();
        for tx in &stream {
            g.apply(tx).expect("fault applies");
        }
    }
}
