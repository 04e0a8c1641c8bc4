//! Per-operator statistics of a running network — `EXPLAIN ANALYZE` for
//! the dataflow: which memories hold how many tuples — plus, behind the
//! `ivm-stats` feature, process-wide allocation/rehash/routing counters
//! for the hot path (see [`counters`]).

use std::fmt;

/// Allocation/rehash/routing accounting for the IVM hot path.
///
/// With the `ivm-stats` feature enabled, the delta/join/network layers
/// count four things; without it, every hook compiles to a no-op:
///
/// * **key materialisations** — a key [`Tuple`](pgq_common::tuple::Tuple)
///   was allocated on a probe/update path. The borrowed-key join memory
///   keeps this at zero per match; only first-insertions of new support
///   keys may count.
/// * **probe hits** — matches yielded by
///   [`IndexedBag::probe`](crate::delta::IndexedBag::probe) (the
///   borrowed-key path; standalone-key
///   [`get`](crate::delta::IndexedBag::get) is not counted), to show
///   the counters cover real work.
/// * **rehashes** — an arrangement's hash map grew its capacity during an
///   update (amortised table growth, not per-match cost).
/// * **scan event deliveries** — a change event was routed to a scan
///   node by the
///   [`DataflowNetwork`](crate::network::DataflowNetwork)'s label/type
///   routing index (one count per event per scan node). A transaction
///   touching only label `A` must deliver zero events to scans over
///   label `B`; the per-node breakdown is always available via
///   [`node_summaries`](crate::network::DataflowNetwork::node_summaries).
///
/// `crates/ivm/tests/alloc_counters.rs` (run via
/// `cargo test -p pgq_ivm --features ivm-stats`, also a CI step)
/// asserts `snapshot().key_materializations == 0` across a steady-state
/// delta batch while `probe_hits > 0`, and that routed deliveries track
/// only the scans that can match.
pub mod counters {
    /// Counter snapshot; obtain via [`snapshot`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Key tuples materialised on probe/update paths.
        pub key_materializations: u64,
        /// Matches yielded by indexed-bag probes.
        pub probe_hits: u64,
        /// Arrangement hash-map capacity growth events.
        pub rehashes: u64,
        /// Change events delivered to scan nodes by the routing index.
        pub scan_events_delivered: u64,
        /// Registrations whose plan the cost-based planner changed.
        pub planner_plans_changed: u64,
        /// Tuples emitted by binary hash-join nodes — on cyclic
        /// patterns planned as join trees this grows with the wedge
        /// count, the intermediate blow-up ⨝ⁿ avoids.
        pub join_tuples_emitted: u64,
        /// Tuples emitted by ⨝ⁿ worst-case-optimal join nodes (motif
        /// instances only, never wedges).
        pub wcoj_tuples_emitted: u64,
        /// Exponential-search steps taken by the sorted-run ⨝ⁿ
        /// sub-indexes while seeking (galloping). Grows with
        /// log(skipped), not with hub degree — the counter-pinning
        /// tests use it to guard against a quadratic fallback.
        pub gallop_steps: u64,
        /// Candidate membership tests performed by the ⨝ⁿ per-variable
        /// intersection (hash probes on the hash-trie backend, leapfrog
        /// seeks on the sorted backend).
        pub intersect_probes: u64,
        /// Operator nodes whose state was restored probe-free from a
        /// durable snapshot during warm recovery.
        pub restore_hits: u64,
        /// Operator nodes that fell back to cold initialisation during
        /// warm recovery (fingerprint absent from the snapshot).
        pub restore_misses: u64,
        /// Full output bags produced from a node's own state — a
        /// memory enumeration, or the by-product of a linear load —
        /// during registration and state dumps. Bags copied from where
        /// they already exist (snapshot, sibling sink, join memory) or
        /// derived by a stateless operator do not count.
        pub bag_enumerations: u64,
        /// Path-trie nodes a ⋈* operator created, dropped or read
        /// (prefixes probed by an edge insertion, subtrees enumerated
        /// for a left-row or destination change). The operator's work
        /// measure: it must track the touched neighbourhood, never the
        /// graph (`crates/ivm/tests/tc_work_bound.rs`).
        pub tc_paths_touched: u64,
        /// Signed tuple updates applied to arrangements after a pass:
        /// one per delta entry per arrangement of the producing node,
        /// however many joins read that arrangement.
        pub arrangement_updates: u64,
    }

    #[cfg(feature = "ivm-stats")]
    mod imp {
        use std::sync::atomic::{AtomicU64, Ordering};

        pub static KEY_MATERIALIZATIONS: AtomicU64 = AtomicU64::new(0);
        pub static PROBE_HITS: AtomicU64 = AtomicU64::new(0);
        pub static REHASHES: AtomicU64 = AtomicU64::new(0);
        pub static SCAN_EVENTS_DELIVERED: AtomicU64 = AtomicU64::new(0);
        pub static PLANNER_PLANS_CHANGED: AtomicU64 = AtomicU64::new(0);
        pub static JOIN_TUPLES_EMITTED: AtomicU64 = AtomicU64::new(0);
        pub static WCOJ_TUPLES_EMITTED: AtomicU64 = AtomicU64::new(0);
        pub static GALLOP_STEPS: AtomicU64 = AtomicU64::new(0);
        pub static INTERSECT_PROBES: AtomicU64 = AtomicU64::new(0);
        pub static RESTORE_HITS: AtomicU64 = AtomicU64::new(0);
        pub static RESTORE_MISSES: AtomicU64 = AtomicU64::new(0);
        pub static BAG_ENUMERATIONS: AtomicU64 = AtomicU64::new(0);
        pub static TC_PATHS_TOUCHED: AtomicU64 = AtomicU64::new(0);
        pub static ARRANGEMENT_UPDATES: AtomicU64 = AtomicU64::new(0);

        pub fn bump(c: &AtomicU64) {
            c.fetch_add(1, Ordering::Relaxed);
        }

        pub fn add(c: &AtomicU64, n: u64) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record a key-tuple materialisation on a hot path.
    #[inline]
    pub fn key_materialized() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::KEY_MATERIALIZATIONS);
    }

    /// Record one match yielded by an indexed-bag probe.
    #[inline]
    pub fn probe_hit() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::PROBE_HITS);
    }

    /// Record one change event routed to a scan node.
    #[inline]
    pub fn scan_event_delivered() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::SCAN_EVENTS_DELIVERED);
    }

    /// Record a registration whose plan the cost-based planner changed.
    #[inline]
    pub fn planner_plan_changed() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::PLANNER_PLANS_CHANGED);
    }

    /// Record one tuple emitted by a binary hash-join node.
    #[inline]
    pub fn join_tuple_emitted() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::JOIN_TUPLES_EMITTED);
    }

    /// Record one tuple emitted by a ⨝ⁿ worst-case-optimal join node.
    #[inline]
    pub fn wcoj_tuple_emitted() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::WCOJ_TUPLES_EMITTED);
    }

    /// Record `n` exponential-search steps taken by one sorted-run seek.
    #[inline]
    pub fn gallop_steps(n: u64) {
        #[cfg(not(feature = "ivm-stats"))]
        let _ = n;
        #[cfg(feature = "ivm-stats")]
        imp::add(&imp::GALLOP_STEPS, n);
    }

    /// Record one candidate membership test in a ⨝ⁿ intersection.
    #[inline]
    pub fn intersect_probe() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::INTERSECT_PROBES);
    }

    /// Record one operator node restored probe-free from a snapshot.
    #[inline]
    pub fn restore_hit() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::RESTORE_HITS);
    }

    /// Record one operator node cold-initialised during warm recovery.
    #[inline]
    pub fn restore_miss() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::RESTORE_MISSES);
    }

    /// Record one full output bag produced from a node's own state.
    #[inline]
    pub fn bag_enumerated() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::BAG_ENUMERATIONS);
    }

    /// Record `n` path-trie nodes touched by a ⋈* operator.
    #[inline]
    pub fn tc_paths_touched(n: u64) {
        #[cfg(not(feature = "ivm-stats"))]
        let _ = n;
        #[cfg(feature = "ivm-stats")]
        imp::add(&imp::TC_PATHS_TOUCHED, n);
    }

    /// Record one tuple update applied to an arrangement.
    #[inline]
    pub fn arrangement_updated() {
        #[cfg(feature = "ivm-stats")]
        imp::bump(&imp::ARRANGEMENT_UPDATES);
    }

    /// Record a hash-map rehash if `after > before` capacity.
    #[inline]
    pub fn rehash_if_grew(before: usize, after: usize) {
        #[cfg(not(feature = "ivm-stats"))]
        let _ = (before, after);
        #[cfg(feature = "ivm-stats")]
        if after > before {
            imp::bump(&imp::REHASHES);
        }
    }

    /// Current counter values (all zero when the feature is off).
    pub fn snapshot() -> Counters {
        #[cfg(feature = "ivm-stats")]
        {
            use std::sync::atomic::Ordering;
            Counters {
                key_materializations: imp::KEY_MATERIALIZATIONS.load(Ordering::Relaxed),
                probe_hits: imp::PROBE_HITS.load(Ordering::Relaxed),
                rehashes: imp::REHASHES.load(Ordering::Relaxed),
                scan_events_delivered: imp::SCAN_EVENTS_DELIVERED.load(Ordering::Relaxed),
                planner_plans_changed: imp::PLANNER_PLANS_CHANGED.load(Ordering::Relaxed),
                join_tuples_emitted: imp::JOIN_TUPLES_EMITTED.load(Ordering::Relaxed),
                wcoj_tuples_emitted: imp::WCOJ_TUPLES_EMITTED.load(Ordering::Relaxed),
                gallop_steps: imp::GALLOP_STEPS.load(Ordering::Relaxed),
                intersect_probes: imp::INTERSECT_PROBES.load(Ordering::Relaxed),
                restore_hits: imp::RESTORE_HITS.load(Ordering::Relaxed),
                restore_misses: imp::RESTORE_MISSES.load(Ordering::Relaxed),
                bag_enumerations: imp::BAG_ENUMERATIONS.load(Ordering::Relaxed),
                tc_paths_touched: imp::TC_PATHS_TOUCHED.load(Ordering::Relaxed),
                arrangement_updates: imp::ARRANGEMENT_UPDATES.load(Ordering::Relaxed),
            }
        }
        #[cfg(not(feature = "ivm-stats"))]
        Counters::default()
    }

    /// Reset all counters to zero (no-op when the feature is off).
    pub fn reset() {
        #[cfg(feature = "ivm-stats")]
        {
            use std::sync::atomic::Ordering;
            imp::KEY_MATERIALIZATIONS.store(0, Ordering::Relaxed);
            imp::PROBE_HITS.store(0, Ordering::Relaxed);
            imp::REHASHES.store(0, Ordering::Relaxed);
            imp::SCAN_EVENTS_DELIVERED.store(0, Ordering::Relaxed);
            imp::PLANNER_PLANS_CHANGED.store(0, Ordering::Relaxed);
            imp::JOIN_TUPLES_EMITTED.store(0, Ordering::Relaxed);
            imp::WCOJ_TUPLES_EMITTED.store(0, Ordering::Relaxed);
            imp::GALLOP_STEPS.store(0, Ordering::Relaxed);
            imp::INTERSECT_PROBES.store(0, Ordering::Relaxed);
            imp::RESTORE_HITS.store(0, Ordering::Relaxed);
            imp::RESTORE_MISSES.store(0, Ordering::Relaxed);
            imp::BAG_ENUMERATIONS.store(0, Ordering::Relaxed);
            imp::TC_PATHS_TOUCHED.store(0, Ordering::Relaxed);
            imp::ARRANGEMENT_UPDATES.store(0, Ordering::Relaxed);
        }
    }
}

/// Statistics of one operator (and its subtree). Built by
/// [`DataflowNetwork::stats_of`](crate::network::DataflowNetwork::stats_of);
/// a node shared between views appears in every referencing view's tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpStats {
    /// Operator label.
    pub name: String,
    /// Tuples materialised in this operator's own memories.
    pub own_tuples: usize,
    /// Children, in input order.
    pub children: Vec<OpStats>,
}

impl OpStats {
    /// Total tuples across the subtree.
    pub fn total_tuples(&self) -> usize {
        self.own_tuples
            + self
                .children
                .iter()
                .map(OpStats::total_tuples)
                .sum::<usize>()
    }

    fn render(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "{}{} [{} tuples]",
            "  ".repeat(depth),
            self.name,
            self.own_tuples
        );
        for c in &self.children {
            c.render(out, depth + 1);
        }
    }
}

impl fmt::Display for OpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s, 0);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use crate::MaterializedView;
    use pgq_algebra::fra::Fra;
    use pgq_common::intern::Symbol;
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;

    #[test]
    fn stats_tree_counts_memories() {
        let mut g = PropertyGraph::new();
        for _ in 0..3 {
            g.add_vertex([Symbol::intern("X")], Properties::new());
        }
        let fra = Fra::Distinct {
            input: Box::new(Fra::ScanVertices {
                var: "n".into(),
                labels: vec![Symbol::intern("X")],
                props: vec![],
                carry_map: false,
            }),
        };
        let view = MaterializedView::create_unchecked("s", &fra, &g);
        let stats = view.network_stats();
        assert_eq!(stats.name, "δ");
        assert_eq!(stats.own_tuples, 3);
        assert_eq!(stats.children[0].own_tuples, 3);
        assert_eq!(stats.total_tuples(), 6);
        let rendered = stats.to_string();
        assert!(rendered.contains("δ [3 tuples]"));
        assert!(rendered.contains("  © [3 tuples]"));
    }
}
