//! Materialised views over FRA plans.
//!
//! [`MaterializedView`] is the standalone single-view façade: it owns a
//! private [`DataflowNetwork`] with exactly one sink, keeping the
//! historical create/maintain/read API for tests, tools, and embedders
//! that maintain one view in isolation. Engines serving many views
//! should own one shared [`DataflowNetwork`] directly (as
//! `pgq_core::GraphEngine` does) so overlapping queries share operator
//! nodes.

use pgq_algebra::fra::Fra;
use pgq_algebra::AlgebraError;
use pgq_algebra::CompiledQuery;
use pgq_common::tuple::Tuple;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;

use crate::delta::Delta;
use crate::network::{DataflowNetwork, SinkId};

/// An incrementally maintained materialised view (one private network,
/// one sink).
#[derive(Clone, Debug)]
pub struct MaterializedView {
    net: DataflowNetwork,
    sink: SinkId,
}

impl MaterializedView {
    /// Register a view for `compiled` and run its initial evaluation.
    ///
    /// Returns [`AlgebraError::NotMaintainable`] when the query falls
    /// outside the paper's maintainable fragment (ORDER BY / SKIP /
    /// LIMIT) — the baseline evaluator can still run such queries
    /// one-shot.
    pub fn create(
        name: impl Into<String>,
        compiled: &CompiledQuery,
        graph: &PropertyGraph,
    ) -> Result<MaterializedView, AlgebraError> {
        if !compiled.is_maintainable() {
            return Err(AlgebraError::NotMaintainable(
                compiled.not_maintainable.join("; "),
            ));
        }
        Ok(Self::create_unchecked(name, &compiled.fra, graph))
    }

    /// Register a view directly over an FRA plan (no fragment check).
    pub fn create_unchecked(
        name: impl Into<String>,
        fra: &Fra,
        graph: &PropertyGraph,
    ) -> MaterializedView {
        let mut net = DataflowNetwork::new();
        let sink = net.register(name, fra, graph);
        MaterializedView { net, sink }
    }

    /// Maintain the view after a committed transaction; returns the
    /// consolidated delta of result changes.
    pub fn on_transaction(&mut self, graph: &PropertyGraph, events: &[ChangeEvent]) -> Delta {
        self.net.on_transaction(graph, events);
        if self.net.sink_changed(self.sink) {
            self.net.last_delta(self.sink).clone()
        } else {
            Delta::new()
        }
    }

    /// Current result bag as `(tuple, multiplicity)` pairs, sorted for
    /// deterministic output.
    pub fn results(&self) -> Vec<(Tuple, i64)> {
        self.net.view(self.sink).results()
    }

    /// Flattened result rows (each tuple repeated by its multiplicity).
    pub fn rows(&self) -> Vec<Tuple> {
        self.net.view(self.sink).rows()
    }

    /// Total row count (with multiplicities).
    pub fn row_count(&self) -> usize {
        self.net.view(self.sink).row_count()
    }

    /// Tuples materialised across the network (memory metric).
    pub fn memory_tuples(&self) -> usize {
        self.net.view(self.sink).memory_tuples()
    }

    /// Number of maintenance rounds executed.
    pub fn maintenance_count(&self) -> u64 {
        self.net.view(self.sink).maintenance_count()
    }

    /// The underlying single-sink network (inspection/testing).
    pub fn network(&self) -> &DataflowNetwork {
        &self.net
    }
}
