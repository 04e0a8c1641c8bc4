//! `cypher_session`: the only per-operation path that starts from text.
//! Distinct statement text through `GraphEngine::execute`.

use super::{named, social, Spec};
use crate::gen::social::generate;

const VIEWS: [&str; 4] = [
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
    "MATCH (a:Person)-[:CREATED]->(p:Post) RETURN a, p",
    "MATCH (p:Person) WHERE p.score > 90 RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
];

pub const PERSONS: usize = 1_500;

pub fn spec(seed: u64, quick: bool) -> Spec {
    let size = social::size(if quick { 100 } else { PERSONS });
    let (load, mut model, digest) = generate(seed, size);
    Spec {
        durable: false,
        load,
        views: named(&VIEWS),
        stream: Box::new(move |d| model.next_stmt(d)),
        digest,
        warmup: if quick { 50 } else { 500 },
        chunk: 512,
        vertices: size.vertices(),
    }
}
