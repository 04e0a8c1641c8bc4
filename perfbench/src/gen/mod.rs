//! The benchmark's own input generators. Everything a workload feeds the
//! engine — the bulk-load transactions and the operation stream — is made
//! here from `--seed`, and folded into the workload's `input_digest` in
//! the generator's own terms (strings and integers, not engine types).

pub mod fanout;
pub mod motif;
pub mod social;

use crate::digest::Digest;
use crate::surface::{sym, NodeRef, Properties, Symbol, Transaction, Value, VertexId};

/// Operation class, for the `heavy_p50_us` / `light_p50_us` metrics: each
/// workload names one expensive and one cheap kind of operation in its
/// mix (see the README's workload glossary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Heavy,
    Light,
    Other,
}

/// A generated property value.
#[derive(Clone, Copy, Debug)]
pub enum P {
    I(i64),
    S(&'static str),
}

impl P {
    pub fn value(self) -> Value {
        match self {
            P::I(i) => Value::Int(i),
            P::S(s) => Value::str(s),
        }
    }
}

pub const LANGS: [&str; 5] = ["en", "de", "fr", "hu", "nl"];

/// Engine properties from generated ones.
pub fn props(pairs: &[(Symbol, P)]) -> Properties {
    let mut out = Properties::new();
    for (k, v) in pairs {
        out.set(*k, v.value());
    }
    out
}

fn digest_props(d: &mut Digest, pairs: &[(Symbol, P)]) {
    for (k, v) in pairs {
        k.with_str(|s| d.str(s));
        match v {
            P::I(i) => d.u64(*i as u64),
            P::S(s) => d.str(s),
        }
    }
}

/// Ops per bulk-load transaction.
const LOAD_TX_OPS: usize = 2048;

/// Builds the bulk-load transactions of a generated graph, predicting the
/// ids the store will allocate (sequential from its watermarks, in
/// creation order) so later operations can name elements without reading
/// anything back from the engine.
#[derive(Default)]
pub struct Builder {
    pub load: Vec<Transaction>,
    current: Transaction,
    pub next_vertex: u64,
    pub next_edge: u64,
    pub digest: Digest,
}

impl Builder {
    fn roll(&mut self) {
        if self.current.len() >= LOAD_TX_OPS {
            self.load.push(std::mem::take(&mut self.current));
        }
    }

    pub fn vertex(&mut self, label: Symbol, pairs: &[(Symbol, P)]) -> u64 {
        label.with_str(|s| self.digest.str(s));
        digest_props(&mut self.digest, pairs);
        self.current.create_vertex([label], props(pairs));
        self.roll();
        self.next_vertex += 1;
        self.next_vertex - 1
    }

    pub fn edge(&mut self, src: u64, dst: u64, ty: Symbol, pairs: &[(Symbol, P)]) -> u64 {
        ty.with_str(|s| self.digest.str(s));
        self.digest.u64(src);
        self.digest.u64(dst);
        digest_props(&mut self.digest, pairs);
        self.current
            .create_edge(vref(src), vref(dst), ty, props(pairs));
        self.roll();
        self.next_edge += 1;
        self.next_edge - 1
    }

    /// Close the last load transaction.
    pub fn finish(&mut self) {
        if !self.current.is_empty() {
            self.load.push(std::mem::take(&mut self.current));
        }
    }
}

pub fn vref(id: u64) -> NodeRef {
    NodeRef::Existing(VertexId(id))
}

/// The vocabulary, interned once.
#[derive(Clone, Copy)]
pub struct Syms {
    pub person: Symbol,
    pub post: Symbol,
    pub comm: Symbol,
    pub knows: Symbol,
    pub created: Symbol,
    pub reply: Symbol,
    pub likes: Symbol,
    pub id: Symbol,
    pub country: Symbol,
    pub score: Symbol,
    pub lang: Symbol,
    pub len: Symbol,
    pub n: Symbol,
    pub e: Symbol,
}

impl Default for Syms {
    fn default() -> Syms {
        Syms {
            person: sym("Person"),
            post: sym("Post"),
            comm: sym("Comm"),
            knows: sym("KNOWS"),
            created: sym("CREATED"),
            reply: sym("REPLY"),
            likes: sym("LIKES"),
            id: sym("id"),
            country: sym("country"),
            score: sym("score"),
            lang: sym("lang"),
            len: sym("len"),
            n: sym("N"),
            e: sym("E"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use crate::surface::PropertyGraph;

    /// Load a generated graph and push `n` stream operations through the
    /// store alone; returns the final digest. Every operation must apply:
    /// the generators predict ids instead of reading them back.
    fn drive(
        load: Vec<Transaction>,
        mut next: impl FnMut(&mut Digest) -> Vec<Transaction>,
        mut digest: Digest,
        n: usize,
    ) -> Digest {
        let mut g = PropertyGraph::new();
        for tx in &load {
            g.apply(tx).expect("load applies");
        }
        for i in 0..n {
            for tx in next(&mut digest) {
                g.apply(&tx)
                    .unwrap_or_else(|e| panic!("stream op {i} does not apply: {e}"));
            }
        }
        digest
    }

    const SMALL_SOCIAL: social::SocialSize = social::SocialSize {
        persons: 40,
        posts_per_person: 2,
        comments_per_post: 3,
        knows_per_person: 3,
        likes_per_person: 2,
    };

    fn social_digest(seed: u64) -> Digest {
        let (load, mut model, digest) = social::generate(seed, SMALL_SOCIAL);
        drive(load, |d| vec![model.next_tx(d).0], digest, 3_000)
    }

    fn motif_digest(seed: u64) -> Digest {
        let size = motif::MotifSize {
            vertices: 60,
            edges: 150,
            hub_edges: 20,
        };
        let (load, mut model, digest) = motif::generate(seed, size);
        drive(load, |d| vec![model.next_tx(d).0], digest, 3_000)
    }

    fn fanout_digest(seed: u64) -> Digest {
        let size = fanout::FanoutSize {
            branches: 20,
            family_views: 80,
            posts: 30,
            batch: 16,
        };
        assert_eq!(fanout::view_queries(size).len(), 100);
        let (load, mut model, digest) = fanout::generate(seed, size);
        drive(load, |d| model.next_batch(d).0, digest, 200)
    }

    #[test]
    fn streams_apply_and_digests_repeat_per_seed() {
        for digest in [social_digest, motif_digest, fanout_digest] {
            assert_eq!(digest(3), digest(3));
            assert_ne!(digest(3), digest(4));
        }
    }

    #[test]
    fn cypher_stream_is_deterministic_and_distinct_text() {
        let texts = |seed| {
            let (_, mut model, mut digest) = social::generate(seed, SMALL_SOCIAL);
            let texts: Vec<String> = (0..500)
                .map(|_| match model.next_stmt(&mut digest).0 {
                    Op::Cypher { text, .. } => text,
                    _ => unreachable!("the Cypher stream emits statements"),
                })
                .collect();
            (texts, digest)
        };
        let (a, da) = texts(9);
        let (b, db) = texts(9);
        assert_eq!(a, b);
        assert_eq!(da, db);
        let distinct: std::collections::BTreeSet<&String> = a.iter().collect();
        assert!(distinct.len() > 400, "{} distinct of 500", distinct.len());
    }
}
