//! The `fanout_batch` input: a forest of independent reply-tree branches
//! (own labels and edge type per branch, so their views share nothing and
//! their transactions have disjoint footprints) beside one shared
//! Post/REPLY/Comm population that a large family of overlapping views
//! reads; and the batched transaction stream over both.

use super::{props, vref, Builder, Class, Syms, LANGS, P};
use crate::digest::Digest;
use crate::prng::Rng;
use crate::surface::{sym, Symbol, Transaction, VertexId};

#[derive(Clone, Copy, Debug)]
pub struct FanoutSize {
    /// Independent branches (one thread view each).
    pub branches: usize,
    /// Views over the shared population (overlap + WHERE families).
    pub family_views: usize,
    /// Posts in the shared population (three comments each).
    pub posts: usize,
    /// Transactions per batch.
    pub batch: usize,
}

struct Branch {
    /// Root first, then its descendants.
    nodes: Vec<u64>,
    /// Current `lang` of each node, as an index into `LANGS`.
    lang: Vec<usize>,
}

pub struct Fanout {
    syms: Syms,
    rng: Rng,
    branches: Vec<Branch>,
    posts: Vec<u64>,
    /// Comments added by the stream (deletable), vertex ids.
    added: Vec<u64>,
    next_vertex: u64,
    batch: usize,
    batches: u64,
}

/// Cypher of the standing views: one thread view per branch, then
/// `family_views` views over the shared population.
pub fn view_queries(size: FanoutSize) -> Vec<String> {
    let mut out: Vec<String> = (0..size.branches)
        .map(|i| format!("MATCH t = (p:P{i})-[:R{i}*]->(c:C{i}) WHERE p.lang = c.lang RETURN p, t"))
        .collect();
    // Overlap family: one join, many projections and aggregates above it.
    let overlap = [
        "RETURN p, c",
        "RETURN p",
        "RETURN c",
        "RETURN c, p",
        "RETURN DISTINCT p",
        "RETURN DISTINCT c",
        "RETURN count(*) AS n",
        "RETURN p.lang AS lang, count(*) AS n",
        "RETURN DISTINCT p.lang AS lang",
        "RETURN c.lang AS lang, count(*) AS n",
        "WHERE p.lang = c.lang RETURN p, c",
        "WHERE p.lang = c.lang RETURN p",
        "WHERE p.lang = c.lang RETURN c",
        "WHERE p.lang = c.lang RETURN count(*) AS n",
        "WHERE p.lang <> c.lang RETURN p, c",
        "WHERE p.lang <> c.lang RETURN count(*) AS n",
    ];
    let mut family: Vec<String> = overlap
        .iter()
        .map(|tail| format!("MATCH (p:Post)-[:REPLY]->(c:Comm) {tail}"))
        .collect();
    // WHERE family: members differ only in the top-level predicate over
    // the same two property columns, so they share the stateful prefix.
    for template in [
        "p.lang = '$a' OR c.lang = '$b'",
        "p.lang = '$a' AND c.lang = '$b'",
        "p.lang <> '$a' AND c.lang = '$b'",
    ] {
        for a in LANGS {
            for b in LANGS {
                let pred = template.replace("$a", a).replace("$b", b);
                family.push(format!(
                    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE {pred} RETURN p, c"
                ));
            }
        }
    }
    assert!(family.len() >= size.family_views, "family pool too small");
    family.truncate(size.family_views);
    out.extend(family);
    out
}

fn branch_syms(i: usize) -> (Symbol, Symbol, Symbol) {
    (
        sym(&format!("P{i}")),
        sym(&format!("C{i}")),
        sym(&format!("R{i}")),
    )
}

pub fn generate(seed: u64, size: FanoutSize) -> (Vec<Transaction>, Fanout, Digest) {
    let syms = Syms::default();
    let mut rng = Rng::new(seed, 1);
    let mut b = Builder::default();
    let en = [(syms.lang, P::S(LANGS[0]))];
    // Branches: root, three children, nine grandchildren, all `en`.
    let branches = (0..size.branches)
        .map(|i| {
            let (post, comm, reply) = branch_syms(i);
            let root = b.vertex(post, &en);
            let mut nodes = vec![root];
            for _ in 0..3 {
                let child = b.vertex(comm, &en);
                b.edge(root, child, reply, &[]);
                nodes.push(child);
                for _ in 0..3 {
                    let leaf = b.vertex(comm, &en);
                    b.edge(child, leaf, reply, &[]);
                    nodes.push(leaf);
                }
            }
            Branch {
                lang: vec![0; nodes.len()],
                nodes,
            }
        })
        .collect();
    let mut posts = Vec::new();
    for _ in 0..size.posts {
        let lang = *rng.pick(&LANGS);
        let post = b.vertex(syms.post, &[(syms.lang, P::S(lang))]);
        posts.push(post);
        for _ in 0..3 {
            let clang = if rng.unit() < 0.7 {
                lang
            } else {
                *rng.pick(&LANGS)
            };
            let c = b.vertex(syms.comm, &[(syms.lang, P::S(clang))]);
            b.edge(post, c, syms.reply, &[]);
        }
    }
    b.finish();
    let model = Fanout {
        syms,
        rng: Rng::new(seed, 2),
        branches,
        posts,
        added: Vec::new(),
        next_vertex: b.next_vertex,
        batch: size.batch,
        batches: 0,
    };
    (b.load, model, b.digest)
}

impl Fanout {
    /// Next batch of small transactions, cycling disjoint, disjoint,
    /// overlapping. A **disjoint** batch (light) retags one node in each
    /// of `batch` different branches, so footprints never meet and the
    /// engine may coalesce passes; an **overlapping** one (heavy) touches,
    /// with every member, the shared Post/Comm population that all family
    /// views read. Two to one, so the all-operations median is a quantile
    /// of the disjoint batches, not the gap between the two kinds.
    pub fn next_batch(&mut self, d: &mut Digest) -> (Vec<Transaction>, Class) {
        let disjoint = self.batches % 3 != 2;
        self.batches += 1;
        let s = self.syms;
        let mut txs = Vec::with_capacity(self.batch);
        let first = self.rng.below(self.branches.len());
        for j in 0..self.batch {
            let mut tx = Transaction::new();
            if disjoint {
                // Flip one node's language between en and de: the root
                // moves every path of its branch, a descendant just its own.
                let bi = (first + j) % self.branches.len();
                let br = &mut self.branches[bi];
                let ni = self.rng.below(br.nodes.len());
                br.lang[ni] ^= 1;
                tx.set_vertex_prop(vref(br.nodes[ni]), s.lang, P::S(LANGS[br.lang[ni]]).value());
                d.u64(br.nodes[ni]);
                d.u64(br.lang[ni] as u64);
            } else {
                // Adds and deletes balance: the population keeps its size.
                match self.rng.below(4) {
                    0 => {
                        let post = *self.rng.pick(&self.posts);
                        let lang = *self.rng.pick(&LANGS);
                        let c = tx.create_vertex([s.comm], props(&[(s.lang, P::S(lang))]));
                        tx.create_edge(vref(post), c, s.reply, props(&[]));
                        self.added.push(self.next_vertex);
                        self.next_vertex += 1;
                        d.u64(post);
                        d.str(lang);
                    }
                    1 if !self.added.is_empty() => {
                        let c = self.added.swap_remove(self.rng.below(self.added.len()));
                        tx.delete_vertex(VertexId(c), true);
                        d.u64(c);
                    }
                    _ => {
                        let post = *self.rng.pick(&self.posts);
                        let lang = *self.rng.pick(&LANGS);
                        tx.set_vertex_prop(vref(post), s.lang, P::S(lang).value());
                        d.u64(post);
                        d.str(lang);
                    }
                }
            }
            txs.push(tx);
        }
        (txs, if disjoint { Class::Light } else { Class::Heavy })
    }
}
