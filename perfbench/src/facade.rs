//! The system under test, driven as an embedding application would: one
//! `GraphEngine`, its standing views, a folding subscriber on each.

use std::sync::Arc;

use crate::gen::Class;
use crate::ops::{subscriber, Fold, Op, Out, SharedFold};
use crate::surface::{GraphEngine, MemDisk, Transaction, ViewId};

pub struct View {
    pub id: ViewId,
    pub name: String,
    pub cypher: String,
    pub fold: SharedFold,
}

pub struct Facade {
    pub engine: GraphEngine,
    pub views: Vec<View>,
    /// The in-memory disk of a durable engine.
    pub disk: Option<MemDisk>,
    /// The transient view of `view_churn`, and the standing view a shared
    /// registration must coincide with.
    churn: Option<(ViewId, Option<usize>)>,
    generation: u64,
}

impl Facade {
    /// In-memory engine (`durable = false`) or a durable one over a fresh
    /// `MemVfs` disk at the engine's default cadence and flush settings.
    pub fn open(durable: bool) -> Facade {
        let (engine, disk) = if durable {
            let disk = MemDisk::new();
            let engine = GraphEngine::open_durable_with(Arc::new(disk.vfs()))
                .expect("a fresh in-memory disk opens");
            (engine, Some(disk))
        } else {
            (GraphEngine::new(), None)
        };
        Facade {
            engine,
            views: Vec::new(),
            disk,
            churn: None,
            generation: 0,
        }
    }

    pub fn load(&mut self, load: &[Transaction]) {
        for tx in load {
            self.engine.apply(tx).expect("bulk load applies");
        }
    }

    /// Register a standing view and subscribe a fold seeded with its
    /// initial contents.
    pub fn register(&mut self, name: &str, cypher: &str) {
        let id = self
            .engine
            .register_view(name, cypher)
            .unwrap_or_else(|e| panic!("standing view `{cypher}` registers: {e}"));
        let fold = Fold::seeded(self.engine.view(id).expect("just registered").results());
        self.engine
            .subscribe(id, subscriber(&fold))
            .expect("just registered");
        self.views.push(View {
            id,
            name: name.to_string(),
            cypher: cypher.to_string(),
            fold,
        });
        self.generation = self.wal_generation();
    }

    fn wal_generation(&self) -> u64 {
        self.engine.durability_health().map_or(0, |h| h.generation)
    }

    /// The one timed call per operation.
    pub fn run(&mut self, op: &Op) -> Out {
        match op {
            Op::Tx(tx) => match self.engine.apply(tx) {
                Ok(_) => Out::Applied,
                Err(e) => Out::Failed(e.to_string()),
            },
            Op::Batch(txs) => match self.engine.apply_batch(txs) {
                Ok(summary) => Out::Batch(summary.transactions),
                Err(e) => Out::Failed(e.to_string()),
            },
            Op::Cypher { text, .. } => match self.engine.execute(text) {
                Ok(r) if r.columns.is_empty() => Out::Stats(
                    r.stats.nodes_created,
                    r.stats.relationships_created,
                    r.stats.nodes_deleted,
                    r.stats.properties_set,
                ),
                Ok(r) => Out::Rows(r.rows.len()),
                Err(e) => Out::Failed(e.to_string()),
            },
            Op::Register {
                name,
                cypher,
                twin_of,
                ..
            } => {
                let before = self.engine.network_node_count();
                match self.engine.register_view(name, cypher) {
                    Ok(id) => {
                        self.churn = Some((id, *twin_of));
                        Out::Registered(self.engine.network_node_count() - before)
                    }
                    Err(e) => Out::Failed(e.to_string()),
                }
            }
            Op::Read => {
                let (id, _) = self.churn.expect("Read follows Register");
                match self.engine.view_results(id) {
                    Ok(rows) => Out::Rows(rows.len()),
                    Err(e) => Out::Failed(e.to_string()),
                }
            }
            Op::Drop => {
                let (id, _) = self.churn.take().expect("Drop follows Register");
                match self.engine.drop_view(id) {
                    Ok(()) => Out::Dropped,
                    Err(e) => Out::Failed(e.to_string()),
                }
            }
        }
    }

    /// Output check, after the clock has stopped.
    pub fn accepts(&self, op: &Op, out: &Out) -> bool {
        if !op.accepts(out) {
            return false;
        }
        // A shared twin must also read back exactly its standing view.
        if let (Op::Read, Out::Rows(n), Some((_, Some(twin)))) = (op, out, self.churn) {
            let standing = self.engine.view(self.views[twin].id).expect("standing");
            return standing.row_count() == *n;
        }
        true
    }

    /// On a durable engine the classes are observed, not generated: a
    /// commit that switched WAL generation carried a snapshot tick
    /// (heavy), any other is light.
    pub fn observed_class(&mut self, generated: Class) -> Class {
        if self.disk.is_none() {
            return generated;
        }
        let g = self.wal_generation();
        let ticked = g != self.generation;
        self.generation = g;
        if ticked {
            Class::Heavy
        } else {
            Class::Light
        }
    }
}
