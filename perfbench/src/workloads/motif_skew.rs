//! `motif_skew`: cyclic patterns over a power-law graph with two hubs.
//! Join memories and ⨝ⁿ intersections are nearly all the work. Views are
//! registered by plain `register_view`: the planner and the ⨝ⁿ cost gate
//! decide how each runs.

use super::{named, Spec};
use crate::gen::motif::{generate, MotifSize};
use crate::ops::Op;

const VIEWS: [&str; 3] = [
    "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(a) RETURN a, b, c",
    "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(d:N)-[:E]->(a) RETURN a, b, c, d",
    "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N) RETURN count(*) AS wedges",
];

pub const SIZE: MotifSize = MotifSize {
    vertices: 2_000,
    edges: 8_000,
    hub_edges: 300,
};

pub fn spec(seed: u64, quick: bool) -> Spec {
    let size = if quick {
        MotifSize {
            vertices: 200,
            edges: 600,
            hub_edges: 30,
        }
    } else {
        SIZE
    };
    let (load, mut model, digest) = generate(seed, size);
    Spec {
        durable: false,
        load,
        views: named(&VIEWS),
        stream: Box::new(move |d| {
            let (tx, class) = model.next_tx(d);
            (Op::Tx(tx), class)
        }),
        digest,
        warmup: if quick { 100 } else { 1000 },
        chunk: 1024,
        vertices: size.vertices,
    }
}
