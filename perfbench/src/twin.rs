//! The traced twin: the same inputs replayed against the layers' own
//! public types — `PropertyGraph`, `DataflowNetwork`, `MemVfs` — calling
//! them in the order the façade does, with a span around every call.
//!
//! The engine reads no clock, so this is the only place per-layer time
//! can be taken without editing it. What the twin cannot reproduce (the
//! façade's private update planner, its view table and subscriber scan,
//! error plumbing) is exactly what `core.residual_us` reports: façade
//! wall on the same inputs minus the twin's layer sum.

use std::sync::Arc;
use std::time::Instant;

use crate::gen::props;
use crate::ops::{Effect, Fold, Op, SharedFold};
use crate::surface::{
    append_payload, canonicalize, compile_bindings, compile_query, encode_tx, evaluate,
    evaluate_query, parse_query, plan_stats, plan_with, recovery_plan, snap_file, wal_file,
    ChangeEvent, DataflowNetwork, Expr, MemDisk, PlanOptions, PropertyGraph, RegisterOptions,
    RestoreStates, SinkId, Snapshot, Transaction, Value, Vfs, ViewDelta,
};
use crate::trace::{Name, Tracer};

/// The engine's default snapshot cadence, in committed transactions.
const SNAPSHOT_EVERY: u64 = 1024;

pub struct TwinView {
    pub sink: SinkId,
    pub name: String,
    pub cypher: String,
    pub fold: SharedFold,
}

struct TwinDisk {
    vfs: Arc<dyn Vfs>,
    generation: u64,
    since_snapshot: u64,
}

/// Work counts taken at the layer boundaries, beside the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub txs: u64,
    pub events: u64,
    pub dirty_sinks: u64,
    pub delta_tuples: u64,
    pub callbacks: u64,
    pub batches: u64,
    pub passes: u64,
    pub updates: u64,
    pub rows_scanned: u64,
    pub registers: u64,
    pub new_nodes: u64,
    pub wal_bytes: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub replay_tx: u64,
    /// Time spent re-executing shadowed stages (not part of any façade
    /// call; excluded from the twin's wall).
    pub shadow_exec_ns: u64,
}

pub struct Twin {
    pub graph: PropertyGraph,
    pub net: DataflowNetwork,
    pub views: Vec<TwinView>,
    churn: Option<SinkId>,
    disk: Option<TwinDisk>,
    pub tracer: Tracer,
    /// Spans of `recover`, kept apart from the measured phase's.
    pub recovery: Option<Tracer>,
    pub counts: Counts,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

impl Twin {
    pub fn open(durable: bool) -> Twin {
        let disk = durable.then(|| TwinDisk {
            vfs: Arc::new(MemDisk::new().vfs()),
            generation: 0,
            since_snapshot: 0,
        });
        Twin {
            graph: PropertyGraph::new(),
            net: DataflowNetwork::new(),
            views: Vec::new(),
            churn: None,
            disk,
            tracer: Tracer::default(),
            recovery: None,
            counts: Counts::default(),
        }
    }

    /// Forget everything recorded so far (set-up and warm-up).
    pub fn reset_measurements(&mut self) {
        self.tracer = Tracer::default();
        self.counts = Counts::default();
        for v in &self.views {
            let mut f = v.fold.lock().expect("fold mutex poisoned");
            f.callbacks = 0;
            f.tuples = 0;
        }
    }

    pub fn load(&mut self, load: &[Transaction]) {
        for tx in load {
            self.commit(tx);
        }
    }

    /// parse → compile → (plan, canon, fingerprint) → register, as
    /// `GraphEngine::register_view` does. Returns the sink and how many
    /// operator nodes the network grew by.
    fn register_sink(
        &mut self,
        name: &str,
        cypher: &str,
        restore: Option<&RestoreStates>,
    ) -> (SinkId, usize) {
        let t = &mut self.tracer;
        let query = t
            .span(Name::ParserParse, || parse_query(cypher))
            .expect("view parses");
        let compiled = t
            .span(Name::AlgebraCompile, || compile_query(&query))
            .expect("view compiles");
        // The rewrite stages run inside `DataflowNetwork::register`; run
        // them once more under the clock and attach them as shadow spans.
        let (planned, plan_ns) = timed(|| {
            let stats = plan_stats(&self.graph);
            plan_with(&compiled.fra, &stats, &PlanOptions::default())
        });
        let (canon, canon_ns) = timed(|| canonicalize(&planned.fra).with_restored_order());
        // Hash-consing fingerprints the root first and stops on a hit, so
        // the root fingerprint is the whole cost of a shared registration.
        let (_, fp_ns) = timed(|| canon.fingerprint());
        self.counts.shadow_exec_ns += plan_ns + canon_ns + fp_ns;
        let before = self.net.node_count();
        let span = if restore.is_some() {
            Name::IvmRestore
        } else {
            Name::IvmRegister
        };
        t.begin(span);
        let sink = match restore {
            Some(states) => self.net.register_with_restore(
                name,
                &compiled.fra,
                &self.graph,
                RegisterOptions::default(),
                states,
            ),
            None => self.net.register(name, &compiled.fra, &self.graph),
        };
        t.shadow(Name::AlgebraPlan, plan_ns);
        t.shadow(Name::AlgebraCanon, canon_ns);
        t.shadow(Name::AlgebraFingerprint, fp_ns);
        t.end(span);
        let new_nodes = self.net.node_count() - before;
        if restore.is_none() {
            self.counts.registers += 1;
            self.counts.new_nodes += new_nodes as u64;
        }
        (sink, new_nodes)
    }

    /// Register a standing view with a seeded fold; on a durable twin the
    /// registration is persisted by a snapshot, as the façade does.
    pub fn register(&mut self, name: &str, cypher: &str) {
        let (sink, _) = self.register_sink(name, cypher, None);
        let fold = Fold::seeded(self.net.view(sink).results());
        self.views.push(TwinView {
            sink,
            name: name.to_string(),
            cypher: cypher.to_string(),
            fold,
        });
        self.snapshot();
    }

    /// `GraphEngine::apply`: store, log, maintain, fan out, maybe tick.
    fn commit(&mut self, tx: &Transaction) {
        let events = self.apply(tx);
        self.maintain(&events);
        self.tick_if_due();
    }

    fn apply(&mut self, tx: &Transaction) -> Vec<ChangeEvent> {
        let t = &mut self.tracer;
        let events = t
            .span(Name::GraphApply, || self.graph.apply(tx))
            .expect("the twin's stream applies");
        if let Some(d) = self.disk.as_mut() {
            let payload = t.span(Name::DurEncode, || encode_tx(tx));
            let frame = t
                .span(Name::DurAppend, || {
                    append_payload(d.vfs.as_ref(), d.generation, &payload)
                })
                .expect("in-memory append");
            self.counts.wal_bytes += frame;
            d.since_snapshot += 1;
        }
        self.counts.txs += 1;
        self.counts.events += events.len() as u64;
        events
    }

    fn maintain(&mut self, events: &[ChangeEvent]) {
        if events.is_empty() {
            return;
        }
        let t = &mut self.tracer;
        t.span(Name::IvmPropagate, || {
            self.net.on_transaction(&self.graph, events)
        });
        self.counts.passes += 1;
        self.counts.dirty_sinks += self.net.changed_sinks().len() as u64;
        t.begin(Name::CoreFanout);
        for v in &self.views {
            if self.net.sink_changed(v.sink) {
                let delta = self.net.last_delta(v.sink);
                self.counts.delta_tuples += delta.len() as u64;
                self.counts.callbacks += 1;
                let vd = ViewDelta::from_delta(&v.name, delta);
                v.fold.lock().expect("fold mutex poisoned").deliver(&vd);
            }
        }
        t.end(Name::CoreFanout);
    }

    fn tick_if_due(&mut self) {
        if self
            .disk
            .as_ref()
            .is_some_and(|d| d.since_snapshot >= SNAPSHOT_EVERY)
        {
            self.snapshot();
        }
    }

    /// The snapshot tick: capture graph and operator state, encode, write
    /// atomically as the next generation, delete the subsumed files.
    fn snapshot(&mut self) {
        let Some(d) = self.disk.as_mut() else { return };
        let t = &mut self.tracer;
        let snap = t.span(Name::DurSnapshotCapture, || {
            let mut snap = Snapshot::capture_graph(&self.graph);
            for (fp, check, bag) in self.net.dump_states().iter() {
                snap.states.push((fp, check, bag.to_vec()));
            }
            snap
        });
        let bytes = t.span(Name::DurSnapshotEncode, || snap.encode());
        let target = d.generation + 1;
        t.span(Name::DurSnapshotWrite, || {
            d.vfs
                .write_atomic(&snap_file(target), &bytes)
                .expect("in-memory write");
            for stale in [wal_file(d.generation), snap_file(d.generation)] {
                d.vfs.remove(&stale).expect("in-memory remove");
            }
        });
        d.generation = target;
        d.since_snapshot = 0;
        self.counts.snapshots += 1;
        self.counts.snapshot_bytes += bytes.len() as u64;
    }

    /// Replay one operation under an `Op` root span.
    pub fn run(&mut self, op: &Op, op_id: u32) {
        self.tracer.op = op_id;
        self.tracer.begin(Name::Op);
        match op {
            Op::Tx(tx) => self.commit(tx),
            Op::Batch(txs) => self.batch(txs),
            Op::Cypher { text, var, effect } => self.cypher(text, var, effect),
            Op::Register { name, cypher, .. } => {
                let (sink, _) = self.register_sink(name, cypher, None);
                self.churn = Some(sink);
            }
            Op::Read => {
                let sink = self.churn.expect("Read follows Register");
                let rows = self
                    .tracer
                    .span(Name::IvmRead, || self.net.view(sink).rows());
                std::hint::black_box(rows.len());
            }
            Op::Drop => {
                let sink = self.churn.take().expect("Drop follows Register");
                self.tracer.span(Name::IvmDrop, || self.net.drop_sink(sink));
            }
        }
        self.tracer.end(Name::Op);
    }

    /// `GraphEngine::apply_batch`: footprint each member, close the
    /// running pass when it conflicts, one pass per disjoint group.
    fn batch(&mut self, txs: &[Transaction]) {
        let mut group: Vec<ChangeEvent> = Vec::new();
        let mut group_fp = None;
        for tx in txs {
            let fp = self.tracer.span(Name::IvmFootprint, || {
                self.net.tx_footprint(&self.graph, tx)
            });
            match group_fp.as_mut() {
                Some(g) if !group.is_empty() && !fp.disjoint(g) => {
                    let events = std::mem::take(&mut group);
                    self.maintain(&events);
                    group_fp = Some(fp);
                }
                Some(g) => g.merge(&fp),
                None => group_fp = Some(fp),
            }
            group.extend(self.apply(tx));
        }
        self.maintain(&group);
        self.counts.batches += 1;
        self.tick_if_due();
    }

    /// `GraphEngine::execute`: parse; a read compiles and evaluates; an
    /// update compiles and evaluates its reading part, turns the bound
    /// rows into a transaction, and commits it.
    fn cypher(&mut self, text: &str, var: &str, effect: &Effect) {
        let t = &mut self.tracer;
        let query = t
            .span(Name::ParserParse, || parse_query(text))
            .expect("parses");
        if let Effect::Read { .. } = effect {
            let compiled = t
                .span(Name::AlgebraCompile, || compile_query(&query))
                .expect("compiles");
            let rows = t.span(Name::EvalQuery, || evaluate_query(&compiled, &self.graph));
            std::hint::black_box(rows.len());
            return;
        }
        let mut tx = Transaction::new();
        let bound = if var.is_empty() {
            None
        } else {
            let items = [(Expr::Variable(var.to_string()), var.to_string())];
            let compiled = t
                .span(Name::AlgebraCompile, || compile_bindings(&query, &items))
                .expect("reading part compiles");
            let bag = t.span(Name::EvalUpdateRead, || {
                evaluate(&compiled.fra, &self.graph)
            });
            self.counts.updates += 1;
            if let Some(label) = effect.match_label() {
                self.counts.rows_scanned += self.graph.vertices_with_label(label).len() as u64;
            }
            let Some((row, _)) = bag.first() else {
                panic!("keyed statement `{text}` bound no row in the twin");
            };
            let Value::Node(v) = row.get(0) else {
                panic!("`{var}` is not a node");
            };
            Some(*v)
        };
        match (effect, bound) {
            (Effect::Set { key, value, .. }, Some(v)) => {
                tx.set_vertex_prop(v, *key, value.value());
            }
            (
                Effect::CreateUnder {
                    ty,
                    new_label,
                    props: p,
                    ..
                },
                Some(v),
            ) => {
                let n = tx.create_vertex([*new_label], props(p));
                tx.create_edge(v, n, *ty, props(&[]));
            }
            (Effect::Delete { .. }, Some(v)) => {
                tx.delete_vertex(v, true);
            }
            (Effect::Create { label, props: p }, None) => {
                tx.create_vertex([*label], props(p));
            }
            other => panic!("statement `{text}` does not fit its effect {:?}", other.0),
        }
        self.commit(&tx);
    }

    /// Drop the live state and rebuild it from the twin's disk image, as
    /// `GraphEngine::open_durable_with` does: plan, restore the graph,
    /// re-register every view warm, replay the WAL tail.
    pub fn recover(&mut self) {
        let d = self.disk.as_ref().expect("durable twin");
        let vfs = Arc::clone(&d.vfs);
        let measured = std::mem::take(&mut self.tracer);
        self.tracer.begin(Name::Op);
        let (_, decode_ns) = timed(|| Snapshot::load(vfs.as_ref(), d.generation));
        self.counts.shadow_exec_ns += decode_ns;
        self.tracer.begin(Name::DurRecoveryPlan);
        let plan = recovery_plan(vfs.as_ref()).expect("the twin's image recovers");
        self.tracer.shadow(Name::DurSnapshotDecode, decode_ns);
        self.tracer.end(Name::DurRecoveryPlan);
        let snap = plan.snapshot.expect("registration snapshots exist");
        self.graph = self
            .tracer
            .span(Name::DurRestoreGraph, || snap.restore_graph())
            .expect("snapshot restores");
        self.net = DataflowNetwork::new();
        let mut states = RestoreStates::new();
        for (fp, check, bag) in &snap.states {
            states.insert(*fp, *check, bag.clone());
        }
        for i in 0..self.views.len() {
            let (name, cypher) = (self.views[i].name.clone(), self.views[i].cypher.clone());
            let (sink, _) = self.register_sink(&name, &cypher, Some(&states));
            self.views[i].sink = sink;
        }
        for (_, log) in &plan.replay {
            for tx in &log.txs {
                let events = self
                    .tracer
                    .span(Name::GraphApply, || self.graph.apply(tx))
                    .expect("replay applies");
                self.tracer.span(Name::IvmPropagate, || {
                    self.net.on_transaction(&self.graph, &events)
                });
                self.counts.replay_tx += 1;
            }
        }
        self.tracer.end(Name::Op);
        self.recovery = Some(std::mem::replace(&mut self.tracer, measured));
    }
}
