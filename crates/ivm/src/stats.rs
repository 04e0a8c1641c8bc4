//! Per-operator statistics of a running network — `EXPLAIN ANALYZE` for
//! the dataflow: which memories hold how many tuples — and the work
//! [`Counters`] every network keeps.

use std::fmt;
use std::ops::AddAssign;

/// Work counts of one
/// [`DataflowNetwork`](crate::network::DataflowNetwork), read through
/// [`counters`](crate::network::DataflowNetwork::counters): the evidence
/// that an update costs what it touches, as counts rather than timings.
///
/// Every count is a plain `u64` kept where the work happens — the join
/// counts by the ⋈ / ⨝ⁿ operators, the trie count by ⋈*, the
/// arrangement and bag counts by the network — so counting is one
/// integer add beside the work, needs no synchronisation at any
/// propagation width, and is part of the width-determinism contract.
/// The join counts include the rows a registration enumerates from a
/// ⋈ / ⨝ⁿ node's memories to seed a new view; a state dump's
/// enumerations count only as bags. A dropped node's counts fold into
/// the network's totals, so every counter only grows. Measure a step as
/// the difference of two reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Tuples emitted by binary hash-join nodes — on cyclic patterns
    /// planned as join trees this grows with the wedge count, the
    /// intermediate blow-up ⨝ⁿ avoids.
    pub join_tuples_emitted: u64,
    /// Tuples emitted by ⨝ⁿ worst-case-optimal join nodes (motif
    /// instances only, never wedges).
    pub wcoj_tuples_emitted: u64,
    /// Candidate membership tests performed by the ⨝ⁿ per-variable
    /// intersection (hash probes on the hash-trie backend, leapfrog
    /// seeks on the sorted backend).
    pub intersect_probes: u64,
    /// Exponential-search steps taken by the sorted-run ⨝ⁿ sub-indexes
    /// while seeking (galloping). Grows with log(skipped), not with hub
    /// degree — the counter-pinning tests use it to guard against a
    /// quadratic fallback.
    pub gallop_steps: u64,
    /// Path-trie nodes a ⋈* operator created, dropped or read (prefixes
    /// probed by an edge insertion, subtrees enumerated for a left-row
    /// or destination change). The operator's work measure: it must
    /// track the touched neighbourhood, never the graph
    /// (`crates/ivm/tests/tc_work_bound.rs`).
    pub tc_paths_touched: u64,
    /// Signed tuple updates applied to arrangements after a pass: one
    /// per delta entry per arrangement of the producing node, however
    /// many joins read that arrangement.
    pub arrangement_updates: u64,
    /// Full output bags a registration or a state dump produced from a
    /// node's own state — a memory enumeration, or the by-product of a
    /// linear load. Bags
    /// copied from where they already exist (snapshot, sibling sink,
    /// arrangement) or derived by a stateless operator do not count.
    pub bag_enumerations: u64,
}

impl AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.join_tuples_emitted += o.join_tuples_emitted;
        self.wcoj_tuples_emitted += o.wcoj_tuples_emitted;
        self.intersect_probes += o.intersect_probes;
        self.gallop_steps += o.gallop_steps;
        self.tc_paths_touched += o.tc_paths_touched;
        self.arrangement_updates += o.arrangement_updates;
        self.bag_enumerations += o.bag_enumerations;
    }
}

/// Statistics of one operator (and its subtree). Built by
/// [`ViewRef::network_stats`](crate::network::ViewRef::network_stats);
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
    use crate::DataflowNetwork;
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
        let mut net = DataflowNetwork::new();
        let sid = net.register("s", &fra, &g);
        let stats = net.stats_of(sid);
        assert_eq!(stats.name, "δ");
        assert_eq!(stats.own_tuples, 3);
        assert_eq!(stats.children[0].own_tuples, 3);
        assert_eq!(stats.total_tuples(), 6);
        let rendered = stats.to_string();
        assert!(rendered.contains("δ [3 tuples]"));
        assert!(rendered.contains("  © [3 tuples]"));
    }
}
