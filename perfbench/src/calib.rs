//! The host-speed reference. This benchmark runs on shared hosts whose
//! speed moves by a third and more from one minute to the next (measured:
//! a fixed piece of work took 400–700 µs, median by 10 s run, over fifteen
//! minutes of one afternoon, and every engine latency moved with it,
//! correlation 0.9 and above). So the clock is calibrated: a **reference
//! burst** — a fixed piece of work of the engine's own kind (hash-map
//! probes, small heap allocations, branches) — runs between operations
//! about every ten milliseconds, and every timed value is scaled by
//! `NOMINAL_NS` over the burst time around it. A latency of "14 µs"
//! therefore reads: 14 µs on a host that runs the burst in `NOMINAL_NS`.
//! A change to the engine leaves the burst alone, so it shows in full; a
//! change in host speed cancels, to about 5%.
//!
//! The burst has two halves of about equal time, because the host's speed
//! has (at least) two dimensions: probes of a map that fits the core's
//! own caches, and probes of one that does not. Over two passes of sixty
//! runs, scaling by either half alone left an IQR/median of up to 20% on
//! some metric of some workload; by both together, 13% (raw clock: 28%).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::prng::Rng;

/// What one burst is taken to cost: about this sandbox's median.
pub const NOMINAL_NS: f64 = 500_000.0;

/// A burst runs once this much time has passed since the last (~5% of a
/// run; short against the seconds-long states of the host).
const BURST_EVERY: Duration = Duration::from_millis(10);

/// Bursts whose median is the host's speed at one moment: ±12 around it,
/// a quarter of a second. One burst alone scatters ±10%, because the
/// engine has evicted a varying share of its map since the last.
const SMOOTH: usize = 25;

/// Entries and probes per burst of the two maps: ~100 KB probed 8192
/// times, ~6 MB probed 1024 times.
const NEAR: (usize, usize) = (1 << 10, 8192);
const FAR: (usize, usize) = (1 << 16, 1024);

struct Reference {
    near: HashMap<u64, Vec<u64>>,
    far: HashMap<u64, Vec<u64>>,
    rng: Rng,
    sink: u64,
}

impl Reference {
    /// Built from a constant seed: the same work in every run of every
    /// `--seed`.
    fn new() -> Reference {
        let mut rng = Rng::new(0x5EED_CA11_B8A7_E000, 0);
        let mut map = |entries: usize| {
            (0..entries as u64)
                .map(|k| (k, (0..4).map(|_| rng.next_u64()).collect()))
                .collect()
        };
        Reference {
            near: map(NEAR.0),
            far: map(FAR.0),
            rng,
            sink: 0,
        }
    }

    /// Probes of random keys, every fourth replacing its value with a
    /// fresh allocation.
    fn probe(&mut self, far: bool) {
        let (map, (entries, steps)) = if far {
            (&mut self.far, FAR)
        } else {
            (&mut self.near, NEAR)
        };
        for step in 0..steps {
            let key = self.rng.below(entries) as u64;
            if step % 4 == 0 {
                let old = map.remove(&key).expect("every key stays present");
                let new = old.iter().map(|v| v.rotate_left(7) ^ self.sink).collect();
                map.insert(key, new);
            } else if let Some(v) = map.get(&key) {
                self.sink = self.sink.wrapping_add(v.iter().fold(0, |a, b| a ^ b));
            }
        }
    }

    /// One burst; its duration in nanoseconds.
    fn burst(&mut self) -> u64 {
        let t = Instant::now();
        self.probe(false);
        self.probe(true);
        std::hint::black_box(self.sink);
        t.elapsed().as_nanos() as u64
    }
}

/// Runs bursts at the pace above and remembers each with the number of
/// operations timed before it.
pub struct Pacer {
    reference: Reference,
    last: Instant,
    at: Vec<usize>,
    ns: Vec<u64>,
}

impl Pacer {
    pub fn new() -> Pacer {
        let mut reference = Reference::new();
        for _ in 0..32 {
            reference.burst();
        }
        Pacer {
            reference,
            last: Instant::now(),
            at: Vec::new(),
            ns: Vec::new(),
        }
    }

    /// A burst now, whatever the pace: `index` operations came before it.
    pub fn burst(&mut self, index: usize) {
        self.at.push(index);
        self.ns.push(self.reference.burst());
        self.last = Instant::now();
    }

    /// A burst if one is due at `now`.
    pub fn tick(&mut self, now: Instant, index: usize) {
        if now.duration_since(self.last) >= BURST_EVERY {
            self.burst(index);
        }
    }

    /// Forget the bursts so far; returns their total time and their
    /// median (the host's speed over that stretch).
    pub fn drain(&mut self) -> (Duration, f64) {
        let spent = Duration::from_nanos(self.ns.iter().sum());
        let median = median(&self.ns);
        self.at.clear();
        self.ns.clear();
        (spent, median)
    }

    /// The scale for each of `samples` operations: `NOMINAL_NS` over the
    /// host's speed at the burst that followed it.
    pub fn scales(&self, samples: usize) -> Vec<f64> {
        scales(&self.at, &self.ns, samples)
    }
}

fn median(ns: &[u64]) -> f64 {
    assert!(!ns.is_empty(), "no burst ran");
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2] as f64
}

fn scales(at: &[usize], ns: &[u64], samples: usize) -> Vec<f64> {
    let smooth: Vec<f64> = (0..ns.len())
        .map(|i| {
            let from = i.saturating_sub(SMOOTH / 2);
            median(&ns[from..(i + SMOOTH / 2 + 1).min(ns.len())])
        })
        .collect();
    let mut next = 0;
    (0..samples)
        .map(|i| {
            while next + 1 < at.len() && at[next] <= i {
                next += 1;
            }
            NOMINAL_NS / smooth[next]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_scaled_by_the_bursts_around_the_one_after_it() {
        // Host at nominal speed for 30 bursts, then twice as slow for 30;
        // one operation between consecutive bursts.
        let at: Vec<usize> = (0..60).collect();
        let ns: Vec<u64> = (0..60)
            .map(|i| if i < 30 { 500_000 } else { 1_000_000 })
            .collect();
        let s = scales(&at, &ns, 60);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[10], 1.0);
        assert_eq!(s[45], 0.5);
        assert_eq!(s[59], 0.5);
        // One wild burst does not move its neighbourhood.
        let mut wild = ns.clone();
        wild[10] = 5_000_000;
        assert_eq!(scales(&at, &wild, 60)[9], 1.0);
    }

    #[test]
    fn bursts_repeat_their_work() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        a.burst();
        b.burst();
        assert_eq!(a.sink, b.sink);
        assert_eq!((a.near.len(), a.far.len()), (NEAR.0, FAR.0));
    }
}
