//! The operations a workload hands the engine, and the folding subscriber
//! both the façade run and the traced twin attach to every standing view.

use std::sync::{Arc, Mutex};

use crate::gen::P;
use crate::surface::{FxHashMap, Symbol, Transaction, Tuple, ViewDelta};

/// What the generator knows about an update statement beyond its text:
/// enough for the per-operation output check, and for the traced twin to
/// replay the statement's effect layer by layer (the façade's own update
/// planner is private to `pgq_core`).
#[derive(Clone, Debug)]
pub enum Effect {
    /// `MATCH (v:label {id: k}) SET v.key = value`
    Set {
        label: Symbol,
        key: Symbol,
        value: P,
    },
    /// `MATCH (v:label {id: k}) CREATE (v)-[:ty]->(:new_label {props})`
    CreateUnder {
        label: Symbol,
        ty: Symbol,
        new_label: Symbol,
        props: Vec<(Symbol, P)>,
    },
    /// `MATCH (v:label {id: k}) DETACH DELETE v`
    Delete { label: Symbol },
    /// `CREATE (:label {props})`
    Create {
        label: Symbol,
        props: Vec<(Symbol, P)>,
    },
    /// One-shot read returning at least `min_rows` and at most `max_rows`.
    Read { min_rows: usize, max_rows: usize },
}

impl Effect {
    /// The label a keyed statement's `MATCH` scans.
    pub fn match_label(&self) -> Option<Symbol> {
        match self {
            Effect::Set { label, .. }
            | Effect::CreateUnder { label, .. }
            | Effect::Delete { label } => Some(*label),
            Effect::Create { .. } | Effect::Read { .. } => None,
        }
    }
}

/// The three kinds of view the `view_churn` pool cycles through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// Shares nothing stateful with the standing views.
    Cold,
    /// Alpha-renamed / conjunct-reordered twin of a standing view.
    Shared,
    /// New member of a standing WHERE family (shares the join prefix).
    Partial,
}

pub enum Op {
    /// One transaction through `GraphEngine::apply`.
    Tx(Transaction),
    /// Several through `GraphEngine::apply_batch`.
    Batch(Vec<Transaction>),
    /// Statement text through `GraphEngine::execute`; `var` is the
    /// variable its `MATCH` binds (empty for an unkeyed `CREATE`).
    Cypher {
        text: String,
        var: &'static str,
        effect: Effect,
    },
    /// `register_view` of a transient view; `twin_of` names the standing
    /// view a `Shared` registration must coincide with.
    Register {
        name: String,
        cypher: String,
        kind: ChurnKind,
        twin_of: Option<usize>,
    },
    /// `view_results` of the transient view.
    Read,
    /// `drop_view` of the transient view.
    Drop,
}

/// What an operation returned, checked after the clock has stopped.
#[derive(Debug, PartialEq, Eq)]
pub enum Out {
    Applied,
    /// `apply_batch`: transactions applied.
    Batch(usize),
    /// Update statement: (nodes created, relationships created, nodes
    /// deleted, properties set).
    Stats(usize, usize, usize, usize),
    /// Rows returned (read statement or `view_results`).
    Rows(usize),
    /// Registration: operator nodes the network grew by.
    Registered(usize),
    Dropped,
    Failed(String),
}

impl Op {
    /// Is `out` what this operation must return?
    pub fn accepts(&self, out: &Out) -> bool {
        match (self, out) {
            (_, Out::Failed(_)) => false,
            (Op::Tx(_), Out::Applied) => true,
            (Op::Batch(txs), Out::Batch(n)) => *n == txs.len(),
            (Op::Cypher { effect, .. }, out) => match (effect, out) {
                (Effect::Set { .. }, Out::Stats(0, 0, 0, 1)) => true,
                (Effect::CreateUnder { .. }, Out::Stats(1, 1, 0, 0)) => true,
                (Effect::Delete { .. }, Out::Stats(0, 0, 1, 0)) => true,
                (Effect::Create { .. }, Out::Stats(1, 0, 0, 0)) => true,
                (Effect::Read { min_rows, max_rows }, Out::Rows(n)) => {
                    (*min_rows..=*max_rows).contains(n)
                }
                _ => false,
            },
            // A shared registration must add no operator node at all.
            (Op::Register { kind, .. }, Out::Registered(new_nodes)) => {
                *kind != ChurnKind::Shared || *new_nodes == 0
            }
            (Op::Read, Out::Rows(_)) => true,
            (Op::Drop, Out::Dropped) => true,
            _ => false,
        }
    }
}

/// A subscriber's running fold of its view: initial contents plus every
/// delivered delta. Equal to the view's final contents iff no delta was
/// lost, duplicated or wrong.
#[derive(Default)]
pub struct Fold {
    pub bag: FxHashMap<Tuple, i64>,
    pub callbacks: u64,
    pub tuples: u64,
}

pub type SharedFold = Arc<Mutex<Fold>>;

impl Fold {
    pub fn seeded(initial: Vec<(Tuple, i64)>) -> SharedFold {
        Arc::new(Mutex::new(Fold {
            bag: initial.into_iter().collect(),
            ..Fold::default()
        }))
    }

    fn add(&mut self, t: &Tuple, m: i64) {
        self.tuples += 1;
        match self.bag.get_mut(t) {
            Some(c) => {
                *c += m;
                if *c == 0 {
                    self.bag.remove(t);
                }
            }
            None => {
                self.bag.insert(t.clone(), m);
            }
        }
    }

    pub fn deliver(&mut self, delta: &ViewDelta) {
        self.callbacks += 1;
        for (t, m) in &delta.inserted {
            self.add(t, *m);
        }
        for (t, m) in &delta.removed {
            self.add(t, -*m);
        }
    }

    /// Does the fold hold exactly this `(tuple, multiplicity)` bag?
    pub fn equals(&self, bag: &[(Tuple, i64)]) -> bool {
        self.bag.len() == bag.len() && bag.iter().all(|(t, m)| self.bag.get(t) == Some(m))
    }
}

/// The subscriber callback: fold the delta, nothing else.
pub fn subscriber(fold: &SharedFold) -> impl FnMut(&ViewDelta) + Send + 'static {
    let fold = Arc::clone(fold);
    move |delta| {
        fold.lock()
            .expect("fold mutex poisoned (a subscriber panicked)")
            .deliver(delta)
    }
}
