//! LDBC-SNB-inspired social network workload.
//!
//! **Substitution note** (see DESIGN.md): the paper grounds its motivation
//! in the LDBC Social Network Benchmark \[17\], whose datasets and update
//! streams are generated by an external tool we do not ship. This module
//! generates a synthetic social network with the same query-relevant
//! structure — persons who know each other, posts with language tags, and
//! transitive comment/reply trees — plus a seeded update stream mixing
//! structural churn (new comments/likes) with fine-grained property
//! updates (language edits), which is exactly what the paper's IVM/FGN
//! claims are about.

use pgq_common::ids::VertexId;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scale parameters.
#[derive(Clone, Copy, Debug)]
pub struct SocialParams {
    /// Number of persons.
    pub persons: usize,
    /// Posts per person (average).
    pub posts_per_person: usize,
    /// Comments per post (average, forming reply trees).
    pub comments_per_post: usize,
    /// KNOWS edges per person (average).
    pub knows_per_person: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SocialParams {
    fn default() -> Self {
        SocialParams {
            persons: 50,
            posts_per_person: 3,
            comments_per_post: 6,
            knows_per_person: 4,
            seed: 42,
        }
    }
}

impl SocialParams {
    /// Scale-factor constructor: SF 1.0 ≈ 200 persons.
    pub fn scale(sf: f64, seed: u64) -> SocialParams {
        SocialParams {
            persons: ((200.0 * sf) as usize).max(4),
            posts_per_person: 3,
            comments_per_post: 6,
            knows_per_person: 4,
            seed,
        }
    }
}

/// The generated network plus handles used by the update stream.
pub struct SocialNetwork {
    /// The graph.
    pub graph: PropertyGraph,
    /// All persons.
    pub persons: Vec<VertexId>,
    /// All posts.
    pub posts: Vec<VertexId>,
    /// All messages (posts + comments) — reply targets.
    pub messages: Vec<VertexId>,
    rng: SmallRng,
}

const LANGS: &[&str] = &["en", "de", "fr", "hu", "nl"];

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// Generate a social network.
pub fn generate_social(params: SocialParams) -> SocialNetwork {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut g = PropertyGraph::new();
    let mut persons = Vec::with_capacity(params.persons);
    for i in 0..params.persons {
        let (v, _) = g.add_vertex(
            [s("Person")],
            Properties::from_iter([
                ("name", Value::str(format!("person-{i}"))),
                ("country", Value::str(LANGS[i % LANGS.len()])),
            ]),
        );
        persons.push(v);
    }
    // KNOWS: preferential-ish random pairs.
    for &p in &persons {
        for _ in 0..params.knows_per_person {
            let q = persons[rng.random_range(0..persons.len())];
            if q != p {
                g.add_edge(p, q, s("KNOWS"), Properties::new()).unwrap();
            }
        }
    }
    // Posts and reply trees.
    let mut posts = Vec::new();
    let mut messages = Vec::new();
    for &p in &persons {
        for _ in 0..params.posts_per_person {
            let lang = LANGS[rng.random_range(0..LANGS.len())];
            let (post, _) = g.add_vertex(
                [s("Post")],
                Properties::from_iter([
                    ("lang", Value::str(lang)),
                    ("len", Value::Int(rng.random_range(10..500))),
                ]),
            );
            g.add_edge(p, post, s("CREATED"), Properties::new())
                .unwrap();
            posts.push(post);
            messages.push(post);
            // Reply tree rooted at the post: each comment replies to a
            // random earlier message of this thread.
            let mut thread: Vec<VertexId> = vec![post];
            for _ in 0..params.comments_per_post {
                let parent = thread[rng.random_range(0..thread.len())];
                let clang = if rng.random_bool(0.7) {
                    lang
                } else {
                    LANGS[rng.random_range(0..LANGS.len())]
                };
                let (c, _) = g.add_vertex(
                    [s("Comm")],
                    Properties::from_iter([
                        ("lang", Value::str(clang)),
                        ("len", Value::Int(rng.random_range(5..200))),
                    ]),
                );
                g.add_edge(parent, c, s("REPLY"), Properties::new())
                    .unwrap();
                let author = persons[rng.random_range(0..persons.len())];
                g.add_edge(author, c, s("CREATED"), Properties::new())
                    .unwrap();
                thread.push(c);
                messages.push(c);
            }
        }
    }
    // LIKES.
    for &p in &persons {
        for _ in 0..2 {
            let m = messages[rng.random_range(0..messages.len())];
            g.add_edge(p, m, s("LIKES"), Properties::new()).unwrap();
        }
    }
    SocialNetwork {
        graph: g,
        persons,
        posts,
        messages,
        rng,
    }
}

/// One step of the update stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SocialOpKind {
    /// Add a comment replying to an existing message.
    AddComment,
    /// Delete a (leaf-ish) comment with its incident edges.
    DeleteComment,
    /// Change a message's `lang` property (fine-grained update).
    Retag,
    /// Add a LIKES edge.
    AddLike,
}

impl SocialNetwork {
    /// Build a seeded update stream of `n` single-operation transactions
    /// with the given mix (weights for add/delete/retag/like).
    ///
    /// The stream is *constructed against the current graph* and applies
    /// cleanly in order; deletions pick comments created by the stream
    /// itself or pre-existing leaves.
    pub fn update_stream(&mut self, n: usize, mix: (u32, u32, u32, u32)) -> Vec<Transaction> {
        let mut txs = Vec::with_capacity(n);
        // Track comment population as the stream evolves (ids created by
        // CreateVertex inside transactions are unknown until applied, so
        // we shadow-apply to a clone).
        let mut shadow = self.graph.clone();
        let mut deletable: Vec<VertexId> = Vec::new();
        let total = mix.0 + mix.1 + mix.2 + mix.3;
        assert!(total > 0, "empty operation mix");
        for _ in 0..n {
            let roll = self.rng.random_range(0..total);
            let kind = if roll < mix.0 {
                SocialOpKind::AddComment
            } else if roll < mix.0 + mix.1 {
                SocialOpKind::DeleteComment
            } else if roll < mix.0 + mix.1 + mix.2 {
                SocialOpKind::Retag
            } else {
                SocialOpKind::AddLike
            };
            let mut tx = Transaction::new();
            match kind {
                SocialOpKind::AddComment => {
                    let parent = self.messages[self.rng.random_range(0..self.messages.len())];
                    let lang = LANGS[self.rng.random_range(0..LANGS.len())];
                    let c = tx.create_vertex(
                        [s("Comm")],
                        Properties::from_iter([
                            ("lang", Value::str(lang)),
                            ("len", Value::Int(self.rng.random_range(5..200))),
                        ]),
                    );
                    tx.create_edge(parent, c, s("REPLY"), Properties::new());
                    let events = shadow.apply(&tx).expect("shadow apply");
                    for ev in &events {
                        if let pgq_graph::delta::ChangeEvent::VertexAdded { id } = ev {
                            deletable.push(*id);
                        }
                    }
                }
                SocialOpKind::DeleteComment => {
                    match deletable.pop() {
                        Some(c) if shadow.has_vertex(c) => {
                            tx.delete_vertex(c, true);
                            shadow.apply(&tx).expect("shadow apply");
                        }
                        _ => {
                            // Nothing stream-created to delete: retag instead.
                            let m = self.messages[self.rng.random_range(0..self.messages.len())];
                            let lang = LANGS[self.rng.random_range(0..LANGS.len())];
                            tx.set_vertex_prop(m, s("lang"), Value::str(lang));
                            shadow.apply(&tx).expect("shadow apply");
                        }
                    }
                }
                SocialOpKind::Retag => {
                    let m = self.messages[self.rng.random_range(0..self.messages.len())];
                    let lang = LANGS[self.rng.random_range(0..LANGS.len())];
                    tx.set_vertex_prop(m, s("lang"), Value::str(lang));
                    shadow.apply(&tx).expect("shadow apply");
                }
                SocialOpKind::AddLike => {
                    let p = self.persons[self.rng.random_range(0..self.persons.len())];
                    let m = self.messages[self.rng.random_range(0..self.messages.len())];
                    tx.create_edge(p, m, s("LIKES"), Properties::new());
                    shadow.apply(&tx).expect("shadow apply");
                }
            }
            txs.push(tx);
        }
        txs
    }
}

/// The queries the social experiments register as views.
pub mod queries {
    /// The paper's running example over the generated data.
    pub const SAME_LANG_THREAD: &str =
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t";
    /// Friends-of-author liking a post (3-hop join, no paths).
    pub const FRIEND_LIKES: &str = "MATCH (a:Person)-[:CREATED]->(p:Post)\
         MATCH (a)-[:KNOWS]->(b:Person) MATCH (b)-[:LIKES]->(p) RETURN a, b, p";
    /// Per-language post counts (aggregation extension).
    pub const POSTS_PER_LANG: &str = "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts";
}

/// Overlapping standing queries over the same Post/REPLY/Comm pattern,
/// the shared-against-private workload of `tests/canonical_sharing.rs`.
/// Pure projection variants share everything below π in the shared
/// dataflow network; WHERE/aggregate variants share the pattern's scans.
/// Take the first N for an N-view workload.
pub const OVERLAPPING_QUERIES: &[&str] = &[
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN c, p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN DISTINCT p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN DISTINCT c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN count(*) AS n",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' RETURN c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS lang, count(*) AS n",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN DISTINCT p.lang AS lang",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = 'de' RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = 'de' RETURN p, c",
];

/// A family of standing queries differing **only** in the top-level
/// `WHERE` predicate. Every member
/// reads the same two property columns (`p.lang`, `c.lang`), so schema
/// inference pushes identical properties into identical scans and the
/// whole stateful prefix below each member's private σ is shared in the
/// canonicalising network. Take the first N for an N-view family.
pub const WHERE_FAMILY_QUERIES: &[&str] = &[
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'de' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'fr' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'hu' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' OR c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' OR c.lang = 'de' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' OR c.lang = 'fr' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' OR c.lang = 'hu' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'fr' OR c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'fr' OR c.lang = 'de' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'fr' OR c.lang = 'fr' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'fr' OR c.lang = 'hu' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'hu' OR c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'hu' OR c.lang = 'de' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'hu' OR c.lang = 'fr' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'hu' OR c.lang = 'hu' RETURN p, c",
];

/// The `i`-th alpha-renamed copy of `OVERLAPPING_QUERIES[0]`. Every copy
/// uses fresh variable names, so
/// pre-canonicalisation networks built one private chain per copy;
/// canonical hash-consing collapses all of them onto one.
pub fn renamed_overlap_query(i: usize) -> String {
    format!("MATCH (p{i}:Post)-[:REPLY]->(c{i}:Comm) RETURN p{i}, c{i}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_social(SocialParams::default());
        let b = generate_social(SocialParams::default());
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    #[test]
    fn stream_applies_cleanly() {
        let mut net = generate_social(SocialParams {
            persons: 10,
            ..Default::default()
        });
        let stream = net.update_stream(50, (4, 2, 3, 1));
        assert_eq!(stream.len(), 50);
        let mut g = net.graph.clone();
        for tx in &stream {
            g.apply(tx).expect("stream transaction applies");
        }
    }

    #[test]
    fn scale_factor_grows_graph() {
        let small = generate_social(SocialParams::scale(0.1, 1));
        let large = generate_social(SocialParams::scale(0.5, 1));
        assert!(large.graph.vertex_count() > small.graph.vertex_count());
    }
}
