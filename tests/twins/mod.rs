//! Reference twins on a network of their own. A view registered through
//! the engine runs the default plan: the planner's join order, and a ⨝ⁿ
//! where the catalog's cost gate fuses one. The reference paths an
//! oracle holds it to — the syntactic order, binary join trees, a ⨝ⁿ
//! forced onto either backend — are `RegisterOptions` of
//! `DataflowNetwork::register_with`, so the oracles register them here
//! and drive this network with the same transactions as their engine.

// Each test crate uses a different slice of this module.
#![allow(dead_code)]

use pgq_algebra::pipeline::compile_query;
use pgq_algebra::plan::WcojMode;
use pgq_common::pool::WorkerPool;
use pgq_common::tuple::Tuple;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::{DataflowNetwork, RegisterOptions, SinkId};
use pgq_parser::parse_query;

/// The syntactic join order: planner off.
pub fn unplanned() -> RegisterOptions {
    RegisterOptions {
        plan: false,
        ..RegisterOptions::default()
    }
}

/// Planned, but cyclic regions stay binary join trees.
pub fn binary() -> RegisterOptions {
    RegisterOptions {
        wcoj: WcojMode::Disabled,
        ..RegisterOptions::default()
    }
}

/// Every eligible cyclic region fused into ⨝ⁿ whatever the cost gate
/// says, on the sorted-run (`true`) or hash-trie (`false`) backend.
pub fn forced(sorted: bool) -> RegisterOptions {
    RegisterOptions {
        wcoj: WcojMode::Forced,
        wcoj_sorted: Some(sorted),
        ..RegisterOptions::default()
    }
}

/// A graph and a network of views over it, maintained at a fixed
/// propagation width. Clones start at the same state (and width).
pub struct Twins {
    graph: PropertyGraph,
    net: DataflowNetwork,
    workers: Option<WorkerPool>,
}

impl Clone for Twins {
    fn clone(&self) -> Twins {
        let threads = self.workers.as_ref().map_or(1, WorkerPool::threads);
        Twins {
            graph: self.graph.clone(),
            net: self.net.clone(),
            workers: None,
        }
        .with_threads(threads)
    }
}

impl Twins {
    /// An empty network over `graph`, propagating inline.
    pub fn new(graph: PropertyGraph) -> Twins {
        Twins {
            graph,
            net: DataflowNetwork::new(),
            workers: None,
        }
    }

    /// Fan each level of the pass across a `threads`-wide pool (`1`:
    /// inline), as `GraphEngine::set_threads` does.
    pub fn with_threads(mut self, threads: usize) -> Twins {
        self.workers = (threads > 1).then(|| WorkerPool::new(threads));
        self
    }

    /// Compile `query` and register it as `name` under `options` over the
    /// current graph.
    pub fn register(&mut self, name: &str, query: &str, options: RegisterOptions) -> SinkId {
        let compiled = compile_query(&parse_query(query).unwrap()).unwrap();
        assert!(compiled.is_maintainable(), "{query}");
        self.net
            .register_with(name, &compiled.fra, &self.graph, options)
    }

    /// Commit `tx` and maintain every view, as `GraphEngine::apply` does.
    pub fn apply(&mut self, tx: &Transaction) {
        let events = self.graph.apply(tx).expect("the transaction applies");
        self.propagate(&events);
    }

    /// Commit every member of `txs` and maintain the views in one pass
    /// over all their events, as `GraphEngine::apply_batch` does.
    pub fn apply_batch(&mut self, txs: &[Transaction]) {
        let mut events = Vec::new();
        for tx in txs {
            events.extend(self.graph.apply(tx).expect("the member applies"));
        }
        self.propagate(&events);
    }

    fn propagate(&mut self, events: &[ChangeEvent]) {
        self.net
            .on_transaction_with(&self.graph, events, self.workers.as_ref());
    }

    /// The view named `name`'s consolidated results.
    pub fn results(&self, name: &str) -> Vec<(Tuple, i64)> {
        let view = self.net.view_named(name);
        view.unwrap_or_else(|| panic!("no view {name}")).results()
    }

    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    pub fn network(&self) -> &DataflowNetwork {
        &self.net
    }
}
