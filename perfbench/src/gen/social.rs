//! Social-network generator: persons with a skewed `KNOWS` graph, posts,
//! reply trees and likes (the shape of the LDBC social network the SIGMOD
//! 2014 contest queries run on), plus its two operation streams — engine
//! `Transaction`s for `social_*`/`view_churn`, Cypher text for
//! `cypher_session`.

use super::{props, vref, Builder, Class, Syms, LANGS, P};
use crate::digest::Digest;
use crate::ops::{Effect, Op};
use crate::prng::Rng;
use crate::surface::{Transaction, VertexId};

#[derive(Clone, Copy, Debug)]
pub struct SocialSize {
    pub persons: usize,
    pub posts_per_person: usize,
    pub comments_per_post: usize,
    pub knows_per_person: usize,
    pub likes_per_person: usize,
}

impl SocialSize {
    /// Vertices the generated graph will have.
    pub fn vertices(&self) -> usize {
        self.persons * (1 + self.posts_per_person * (1 + self.comments_per_post))
    }
}

/// The generator's model of the live graph: just enough to emit
/// operations that always apply (which vertices exist, under which key).
pub struct Social {
    pub syms: Syms,
    rng: Rng,
    /// Person vertex ids; a person's `id` property is its index here.
    pub persons: Vec<u64>,
    /// Posts as `(vertex id, id property)`; never deleted.
    pub posts: Vec<(u64, u64)>,
    /// Live comments as `(vertex id, id property)`.
    pub comments: Vec<(u64, u64)>,
    next_vertex: u64,
    next_post_key: u64,
    next_comm_key: u64,
    next_person_key: u64,
}

/// Generate the graph: returns its bulk-load transactions, the model, and
/// the digest so far.
pub fn generate(seed: u64, size: SocialSize) -> (Vec<Transaction>, Social, Digest) {
    let syms = Syms::default();
    let mut rng = Rng::new(seed, 1);
    let mut b = Builder::default();
    let persons: Vec<u64> = (0..size.persons)
        .map(|i| {
            b.vertex(
                syms.person,
                &[
                    (syms.id, P::I(i as i64)),
                    (syms.country, P::S(LANGS[i % LANGS.len()])),
                    (syms.score, P::I(rng.below(100) as i64)),
                ],
            )
        })
        .collect();
    // KNOWS: targets skewed towards low indexes, so a few persons are
    // known by very many (in-degree hubs) while out-degree stays flat.
    for &p in &persons {
        for _ in 0..size.knows_per_person {
            let q = persons[rng.skewed(persons.len(), 2.5)];
            if q != p {
                b.edge(p, q, syms.knows, &[]);
            }
        }
    }
    let mut posts = Vec::new();
    let mut comments = Vec::new();
    for &p in &persons {
        for _ in 0..size.posts_per_person {
            let lang = *rng.pick(&LANGS);
            let key = posts.len() as u64;
            let post = b.vertex(
                syms.post,
                &[
                    (syms.id, P::I(key as i64)),
                    (syms.lang, P::S(lang)),
                    (syms.len, P::I(10 + rng.below(490) as i64)),
                ],
            );
            b.edge(p, post, syms.created, &[]);
            posts.push((post, key));
            // Reply tree: each comment answers a random earlier message
            // of its thread; 70% keep the post's language.
            let mut thread = vec![post];
            for _ in 0..size.comments_per_post {
                let parent = *rng.pick(&thread);
                let clang = if rng.unit() < 0.7 {
                    lang
                } else {
                    *rng.pick(&LANGS)
                };
                let ckey = comments.len() as u64;
                let c = b.vertex(
                    syms.comm,
                    &[
                        (syms.id, P::I(ckey as i64)),
                        (syms.lang, P::S(clang)),
                        (syms.len, P::I(5 + rng.below(195) as i64)),
                    ],
                );
                b.edge(parent, c, syms.reply, &[]);
                b.edge(*rng.pick(&persons), c, syms.created, &[]);
                thread.push(c);
                comments.push((c, ckey));
            }
        }
    }
    // LIKES: half on posts (feeding the friend-likes join), half on comments.
    for &p in &persons {
        for _ in 0..size.likes_per_person {
            let m = if rng.unit() < 0.5 {
                rng.pick(&posts).0
            } else {
                rng.pick(&comments).0
            };
            b.edge(p, m, syms.likes, &[]);
        }
    }
    b.finish();
    let model = Social {
        syms,
        rng: Rng::new(seed, 2),
        next_vertex: b.next_vertex,
        next_post_key: posts.len() as u64,
        next_comm_key: comments.len() as u64,
        next_person_key: persons.len() as u64,
        persons,
        posts,
        comments,
    };
    (b.load, model, b.digest)
}

impl Social {
    fn message(&mut self) -> u64 {
        if self.comments.is_empty() || self.rng.unit() < 0.3 {
            self.rng.pick(&self.posts).0
        } else {
            self.rng.pick(&self.comments).0
        }
    }

    /// Next single-operation transaction of the social stream, mix
    /// add-comment / delete-comment / retag / like = 3 / 3 / 3 / 1: adds
    /// and deletes balance, so the graph keeps its size however long the
    /// run lasts (a run is time-bounded; under a growing mix the snapshot
    /// tick and the memory peak would depend on how far the run got).
    /// Heavy = delete-comment (detaches a subtree's root: every thread
    /// path through it retracts), light = like.
    pub fn next_tx(&mut self, d: &mut Digest) -> (Transaction, Class) {
        let s = self.syms;
        let mut tx = Transaction::new();
        let roll = self.rng.below(10);
        d.u64(roll as u64);
        let class = match roll {
            0..=2 => {
                let parent = self.message();
                let author = *self.rng.pick(&self.persons);
                let lang = *self.rng.pick(&LANGS);
                let key = self.next_comm_key;
                self.next_comm_key += 1;
                let c = tx.create_vertex(
                    [s.comm],
                    props(&[
                        (s.id, P::I(key as i64)),
                        (s.lang, P::S(lang)),
                        (s.len, P::I(5 + self.rng.below(195) as i64)),
                    ]),
                );
                tx.create_edge(vref(parent), c, s.reply, props(&[]));
                tx.create_edge(vref(author), c, s.created, props(&[]));
                self.comments.push((self.next_vertex, key));
                self.next_vertex += 1;
                d.u64(parent);
                d.u64(author);
                d.str(lang);
                Class::Other
            }
            3..=5 if self.comments.len() > 1 => {
                let at = self.rng.below(self.comments.len());
                let (c, _) = self.comments.swap_remove(at);
                tx.delete_vertex(VertexId(c), true);
                d.u64(c);
                Class::Heavy
            }
            3..=8 => {
                let m = self.message();
                let lang = *self.rng.pick(&LANGS);
                tx.set_vertex_prop(vref(m), s.lang, P::S(lang).value());
                d.u64(m);
                d.str(lang);
                Class::Other
            }
            _ => {
                let p = *self.rng.pick(&self.persons);
                let m = self.message();
                tx.create_edge(vref(p), vref(m), s.likes, props(&[]));
                d.u64(p);
                d.u64(m);
                Class::Light
            }
        };
        (tx, class)
    }

    /// Next statement of the Cypher session: 60% keyed updates, 20%
    /// unkeyed `CREATE`, 20% one-shot reads. Every statement is distinct
    /// text (keys and values vary), as an application would send it.
    /// Heavy = the bounded two-hop read, light = the person-keyed `SET`:
    /// one statement shape each, so their medians are not a mixture's.
    /// (Three quarters of the keyed updates match on `Person`, so the
    /// overall median also falls inside one shape's cost range.)
    pub fn next_stmt(&mut self, d: &mut Digest) -> (Op, Class) {
        let s = self.syms;
        let roll = self.rng.below(20);
        let (text, var, effect, class) = match roll {
            0..=4 => {
                let k = self.rng.below(self.persons.len());
                let v = self.rng.below(100) as i64;
                (
                    format!("MATCH (p:Person {{id: {k}}}) SET p.score = {v}"),
                    "p",
                    Effect::Set {
                        label: s.person,
                        key: s.score,
                        value: P::I(v),
                    },
                    Class::Light,
                )
            }
            5..=6 => {
                let k = self.rng.pick(&self.posts).1;
                let lang = *self.rng.pick(&LANGS);
                (
                    format!("MATCH (m:Post {{id: {k}}}) SET m.lang = '{lang}'"),
                    "m",
                    Effect::Set {
                        label: s.post,
                        key: s.lang,
                        value: P::S(lang),
                    },
                    Class::Other,
                )
            }
            7..=10 => {
                let k = self.rng.below(self.persons.len());
                let key = self.next_post_key;
                self.next_post_key += 1;
                let lang = *self.rng.pick(&LANGS);
                let len = 10 + self.rng.below(490) as i64;
                self.posts.push((self.next_vertex, key));
                self.next_vertex += 1;
                (
                    format!(
                        "MATCH (p:Person {{id: {k}}}) CREATE (p)-[:CREATED]->(:Post {{id: {key}, lang: '{lang}', len: {len}}})"
                    ),
                    "p",
                    Effect::CreateUnder {
                        label: s.person,
                        ty: s.created,
                        new_label: s.post,
                        props: vec![
                            (s.id, P::I(key as i64)),
                            (s.lang, P::S(lang)),
                            (s.len, P::I(len)),
                        ],
                    },
                    Class::Other,
                )
            }
            11 if self.comments.len() > 1 => {
                let at = self.rng.below(self.comments.len());
                let (_, k) = self.comments.swap_remove(at);
                (
                    format!("MATCH (c:Comm {{id: {k}}}) DETACH DELETE c"),
                    "c",
                    Effect::Delete { label: s.comm },
                    Class::Other,
                )
            }
            11..=15 => {
                // Unkeyed CREATE: a comment nobody replies to yet, or a person.
                if roll.is_multiple_of(2) {
                    let key = self.next_comm_key;
                    self.next_comm_key += 1;
                    let lang = *self.rng.pick(&LANGS);
                    let len = 5 + self.rng.below(195) as i64;
                    self.comments.push((self.next_vertex, key));
                    self.next_vertex += 1;
                    (
                        format!("CREATE (:Comm {{id: {key}, lang: '{lang}', len: {len}}})"),
                        "",
                        Effect::Create {
                            label: s.comm,
                            props: vec![
                                (s.id, P::I(key as i64)),
                                (s.lang, P::S(lang)),
                                (s.len, P::I(len)),
                            ],
                        },
                        Class::Other,
                    )
                } else {
                    let key = self.next_person_key;
                    self.next_person_key += 1;
                    let country = *self.rng.pick(&LANGS);
                    let score = self.rng.below(100) as i64;
                    self.persons.push(self.next_vertex);
                    self.next_vertex += 1;
                    (
                        format!(
                            "CREATE (:Person {{id: {key}, country: '{country}', score: {score}}})"
                        ),
                        "",
                        Effect::Create {
                            label: s.person,
                            props: vec![
                                (s.id, P::I(key as i64)),
                                (s.country, P::S(country)),
                                (s.score, P::I(score)),
                            ],
                        },
                        Class::Other,
                    )
                }
            }
            16..=17 => {
                let k = self.rng.below(self.persons.len());
                (
                    format!(
                        "MATCH (a:Person {{id: {k}}})-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN count(*) AS reach"
                    ),
                    "",
                    Effect::Read {
                        min_rows: 0,
                        max_rows: 1,
                    },
                    Class::Heavy,
                )
            }
            _ => {
                let len = 10 + self.rng.below(400);
                (
                    format!(
                        "MATCH (p:Post) WHERE p.len > {len} RETURN p.lang AS lang, count(*) AS posts"
                    ),
                    "",
                    Effect::Read {
                        min_rows: 1,
                        max_rows: LANGS.len(),
                    },
                    Class::Other,
                )
            }
        };
        d.str(&text);
        (Op::Cypher { text, var, effect }, class)
    }
}
