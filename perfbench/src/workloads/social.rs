//! `social_stream` and its durable twin `social_durable`: the paper's core
//! claim. Eight standing views over the social graph, single-operation
//! transactions through `GraphEngine::apply`.

use super::{named, Spec};
use crate::gen::social::{generate, SocialSize};
use crate::ops::Op;

/// The paper's thread view, the friend-likes three-way join, two
/// aggregates, and four members of one WHERE family.
pub const VIEWS: [&str; 8] = [
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    "MATCH (a:Person)-[:CREATED]->(p:Post) MATCH (a)-[:KNOWS]->(b:Person) MATCH (b)-[:LIKES]->(p) RETURN a, b, p",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS lang, count(*) AS replies",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'de' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' OR c.lang = 'fr' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'fr' OR c.lang = 'hu' RETURN p, c",
];

pub fn size(persons: usize) -> SocialSize {
    SocialSize {
        persons,
        posts_per_person: 2,
        comments_per_post: 4,
        knows_per_person: 4,
        likes_per_person: 4,
    }
}

pub fn spec(seed: u64, quick: bool, durable: bool) -> Spec {
    // 11 vertices per person. The durable twin is smaller because every
    // snapshot tick rewrites the whole graph and operator state.
    let persons = match (quick, durable) {
        (true, _) => 200,
        (false, false) => PERSONS_STREAM,
        (false, true) => PERSONS_DURABLE,
    };
    let size = size(persons);
    let (load, mut model, digest) = generate(seed, size);
    Spec {
        durable,
        load,
        views: named(&VIEWS),
        stream: Box::new(move |d| {
            let (tx, class) = model.next_tx(d);
            (Op::Tx(tx), class)
        }),
        digest,
        warmup: if quick { 200 } else { 4096 },
        chunk: 4096,
        vertices: size.vertices(),
    }
}

pub const PERSONS_STREAM: usize = 8_000;
pub const PERSONS_DURABLE: usize = 600;
