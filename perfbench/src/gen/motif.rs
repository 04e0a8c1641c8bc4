//! Power-law directed graph with two hubs, and an edge insert/delete
//! stream biased towards the hubs — the input of `motif_skew`.
//!
//! Motif counts grow with the fourth power of the top degrees, so a
//! sampled power law would make every seed a different workload. Two
//! measures keep seeds comparable: endpoints are **stratified** (every
//! seed has the same degree sequence to within one; only the wiring
//! differs), and the stream only ever toggles edges of a fixed universe
//! (about a tenth of it is absent at any time), so the degree sequence
//! does not drift however long the run lasts.

use super::{props, vref, Builder, Class, Syms};
use crate::digest::Digest;
use crate::prng::Rng;
use crate::surface::{EdgeId, Transaction};

#[derive(Clone, Copy, Debug)]
pub struct MotifSize {
    pub vertices: usize,
    /// Edges between skew-chosen ordinary vertices.
    pub edges: usize,
    /// Extra edges at each of the two hubs, half out and half in.
    pub hub_edges: usize,
}

/// The edges of one class: present ones as `(edge id, src, dst)`, absent
/// ones as `(src, dst)`.
#[derive(Default)]
struct Pool {
    live: Vec<(u64, u64, u64)>,
    dead: Vec<(u64, u64)>,
    /// Absent edges at generation time; the stream steers back to it.
    target_dead: usize,
}

pub struct Motif {
    syms: Syms,
    rng: Rng,
    hub: Pool,
    plain: Pool,
    next_edge: u64,
}

const HUBS: u64 = 2;
/// Endpoint skew among ordinary vertices: index = n * u^SKEW.
const SKEW: f64 = 2.0;
/// One edge in this many starts absent.
const ABSENT_ONE_IN: usize = 10;

pub fn generate(seed: u64, size: MotifSize) -> (Vec<Transaction>, Motif, Digest) {
    let syms = Syms::default();
    let mut rng = Rng::new(seed, 1);
    let mut b = Builder::default();
    for _ in 0..size.vertices {
        b.vertex(syms.n, &[]);
    }
    let n = size.vertices - HUBS as usize;
    let mut universe: Vec<(bool, u64, u64)> = Vec::new();
    // Edge j draws its source from the j-th of `edges` equal slices of
    // [0,1), its target likewise under a random pairing.
    let stratum = |j: usize, rng: &mut Rng| {
        let u = (j as f64 + rng.unit()) / size.edges as f64;
        HUBS + ((n as f64 * u.powf(SKEW)) as usize).min(n - 1) as u64
    };
    let mut targets: Vec<u64> = (0..size.edges).map(|j| stratum(j, &mut rng)).collect();
    for j in (1..targets.len()).rev() {
        targets.swap(j, rng.below(j + 1));
    }
    for (j, &dst) in targets.iter().enumerate() {
        let src = stratum(j, &mut rng);
        if src != dst {
            universe.push((false, src, dst));
        }
    }
    // Hub neighbours are spread evenly over the degree ranks (one grid of
    // `HUBS * hub_edges` evenly spaced vertices from a seeded offset, dealt
    // to the hubs in turn, alternating out and in): which high-degree
    // vertices a hub touches would otherwise decide the counts, and so
    // would how many neighbours the two hubs share — with a grid and an
    // offset per hub, three seeds in ten ran at half the speed of the
    // other seven (105 delta tuples per transaction against 8).
    let slots = HUBS as usize * size.hub_edges;
    assert!(
        slots <= n,
        "hub neighbourhoods must not wrap onto each other"
    );
    let offset = rng.below(n);
    for hub in 0..HUBS {
        for i in 0..size.hub_edges {
            let slot = i * HUBS as usize + hub as usize;
            let other = HUBS + ((offset + slot * n / slots) % n) as u64;
            universe.push(if i % 2 == 0 {
                (true, hub, other)
            } else {
                (true, other, hub)
            });
        }
    }
    let mut m = Motif {
        syms,
        rng: Rng::new(seed, 2),
        hub: Pool::default(),
        plain: Pool::default(),
        next_edge: 0,
    };
    for (at_hub, src, dst) in universe {
        let pool = if at_hub { &mut m.hub } else { &mut m.plain };
        if rng.below(ABSENT_ONE_IN) == 0 {
            pool.dead.push((src, dst));
        } else {
            pool.live.push((b.edge(src, dst, syms.e, &[]), src, dst));
        }
    }
    m.hub.target_dead = m.hub.dead.len().max(1);
    m.plain.target_dead = m.plain.dead.len().max(1);
    b.finish();
    m.next_edge = b.next_edge;
    (b.load, m, b.digest)
}

impl Motif {
    /// Next edge operation: 30% touch a hub (heavy), 70% do not (light).
    /// An absent edge of the universe comes back or a present one goes;
    /// the choice leans towards restoring the initial number of absent
    /// edges, so the edge count hovers.
    pub fn next_tx(&mut self, d: &mut Digest) -> (Transaction, Class) {
        let at_hub = self.rng.unit() < 0.3;
        let pool = if at_hub {
            &mut self.hub
        } else {
            &mut self.plain
        };
        let insert = self.rng.unit() * 2.0 * (pool.target_dead as f64) < pool.dead.len() as f64;
        let mut tx = Transaction::new();
        if insert || pool.live.is_empty() {
            let (src, dst) = pool.dead.swap_remove(self.rng.below(pool.dead.len()));
            tx.create_edge(vref(src), vref(dst), self.syms.e, props(&[]));
            pool.live.push((self.next_edge, src, dst));
            self.next_edge += 1;
            d.u64(src);
            d.u64(dst);
        } else {
            let (e, src, dst) = pool.live.swap_remove(self.rng.below(pool.live.len()));
            tx.delete_edge(EdgeId(e));
            pool.dead.push((src, dst));
            d.u64(u64::MAX);
            d.u64(e);
        }
        (tx, if at_hub { Class::Heavy } else { Class::Light })
    }
}
