//! The `GraphEngine` façade: graph + views + openCypher execution.

use pgq_algebra::flatten::{resolve_constant, SchemaMode};
use pgq_algebra::fra::Fra;
use pgq_algebra::pipeline::{
    compile_bindings, compile_bindings_params, compile_query_params, compile_query_with,
    CompileOptions, CompiledQuery,
};
use pgq_algebra::plan::WcojMode;
use pgq_algebra::{AlgebraError, ScalarExpr};
use pgq_common::fxhash::FxHashMap;
use pgq_common::intern::Symbol;
use pgq_common::pool::WorkerPool;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_durability::fold::{self, FoldJob, FoldWorker};
use pgq_durability::recovery::{self, RecoveryReport};
use pgq_durability::wal::{self, wal_file};
use pgq_durability::{DurOp, DurabilityError, FsyncMode, Record, SnapshotView, StdVfs, Vfs};
use pgq_graph::delta::ChangeEvent;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::{NodeRef, Transaction};
use pgq_ivm::{DataflowNetwork, Delta, RegisterOptions, SinkId, ViewRef};
use pgq_parser::ast::{Clause, Expr, Pattern, Query, RemoveItem, SetItem};
use pgq_parser::shape::{lifted_name, Shape};
use pgq_parser::{parse_query, parse_tokens};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::subscribe::{Subscriber, ViewDelta};

/// Handle of a registered view.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ViewId(usize);

#[derive(Clone)]
struct ViewEntry {
    sink: SinkId,
    compiled: CompiledQuery,
    query_text: String,
    /// Compile/register options, kept so a durable snapshot's catalog
    /// lets recovery re-register the view mode-faithfully.
    compile: CompileOptions,
    register: RegisterOptions,
    /// The view's subscribers, in subscription order; they go with the
    /// entry when the view is dropped.
    subscribers: Subscribers,
}

/// A view's subscriber callbacks. They belong to the consumers of the
/// engine they were registered on, so a clone of the list is empty (see
/// `impl Clone for GraphEngine`).
#[derive(Default)]
struct Subscribers(Vec<Subscriber>);

impl Clone for Subscribers {
    fn clone(&self) -> Subscribers {
        Subscribers::default()
    }
}

/// Durability state of an engine opened via
/// [`GraphEngine::open_durable`]: the storage handle, the active WAL
/// generation, the fold worker, and the breaker behind degradation.
struct Durable {
    vfs: Arc<dyn Vfs>,
    /// Active WAL generation: appends go to `wal.<generation>`, and
    /// every snapshot or cadence switch moves them to `generation + 1`.
    generation: u64,
    /// The image recovery starts from (`None`: replay from `wal.0`);
    /// every later generation up to the active one is a log on disk.
    base: Option<u64>,
    /// The thread folds run on: started at the first switch (again at
    /// the next one if a start failed) and joined when the engine goes.
    worker: Option<FoldWorker>,
    /// A fold was handed to the worker and not yet collected: at most
    /// one; the next switch, every synchronous snapshot and drop wait
    /// for it.
    folding: bool,
    /// The graph of `snap.<base>` when a fold wrote it, for the next.
    kept: Option<PropertyGraph>,
    /// The view catalog every image records, shared with the folds:
    /// rebuilt when the view set changes, never per image. A
    /// registration's log record is its row here.
    catalog: Arc<[SnapshotView]>,
    /// Folds that failed or panicked since the engine opened.
    fold_failures: u64,
    /// Records currently in the active generation's log.
    wal_records: u64,
    /// Valid byte length of the active log — the engine's mirror of the
    /// on-disk file, used to rewrite the tail after a failed append.
    wal_len: u64,
    /// Commit flush policy (`PGQ_FSYNC`).
    fsync: FsyncMode,
    /// Group-commit window under [`FsyncMode::Always`]
    /// (`PGQ_FLUSH_WINDOW`, default 1): `sync_data` once every `n`
    /// commits instead of per commit. `n > 1` trades a bounded loss
    /// window (up to `n - 1` acknowledged commits on power loss) for
    /// amortised sync cost; `apply_batch` always coalesces onto one
    /// sync per batch regardless.
    flush_window: u64,
    /// Commits appended since the last successful sync.
    unsynced: u64,
    /// Auto-snapshot cadence in committed transactions
    /// (`PGQ_SNAPSHOT_EVERY`; `0` disables the cadence, leaving only
    /// explicit snapshots). Catalog records do not count.
    snapshot_every: u64,
    /// Commits since the last switch (or replayed past the base).
    txs_since_snapshot: u64,
    /// Images written since opening (snapshots and joined folds).
    snapshots_written: u64,
    /// Size of the most recent one, written or recovered from (also
    /// the next one's buffer hint).
    last_snapshot_bytes: u64,
    /// Consecutive failed commits; resets on success.
    fail_streak: u64,
    /// Failed commits tolerated before the engine degrades to
    /// read-only.
    max_failures: u64,
    /// When set, the engine is read-only: the durability failure that
    /// tripped the breaker. Cleared by
    /// [`GraphEngine::reset_durability`].
    degraded: Option<DurabilityError>,
    /// Most recent durability failure (including non-fatal ones, e.g. a
    /// failed fold, whose commits were already durable).
    last_error: Option<DurabilityError>,
    /// What recovery found and repaired when this engine opened.
    recovery: RecoveryReport,
}

/// Operator-facing durability status (see
/// [`GraphEngine::durability_health`]).
#[derive(Clone, Debug)]
pub struct DurabilityHealth {
    /// Read-only degraded, and why. `None` = healthy, writable.
    pub degraded: Option<DurabilityError>,
    /// Consecutive failed commits.
    pub fail_streak: u64,
    /// Most recent durability failure of any kind.
    pub last_error: Option<DurabilityError>,
    /// Active WAL generation.
    pub generation: u64,
    /// Records in the active generation's log: transactions and
    /// catalog records.
    pub wal_records: u64,
    /// Valid bytes in the active generation's log.
    pub wal_len: u64,
    /// Group-commit flush window.
    pub flush_window: u64,
    /// Images written since the engine opened: synchronous snapshots
    /// (explicit calls, resets) and joined folds. View DDL writes none:
    /// it appends a catalog record to the log.
    pub snapshots_written: u64,
    /// Encoded size of the most recent snapshot, in bytes — written,
    /// or until then loaded by recovery (`0` after a cold start).
    pub last_snapshot_bytes: u64,
    /// The image recovery would start from (`None`: none); one behind
    /// `generation` while a fold runs, more after one failed.
    pub base_generation: Option<u64>,
    /// A fold has started; it counts once the next switch, snapshot or drop joins it.
    pub fold_in_flight: bool,
    /// Folds that failed or panicked since the engine opened.
    pub fold_failures: u64,
}

impl Durable {
    /// Collect the fold in flight: its image becomes the base, or its
    /// failure `last_error` (the next switch folds the longer chain).
    fn join_fold(&mut self) {
        if !std::mem::take(&mut self.folding) {
            return;
        }
        let worker = self.worker.as_ref().expect("a fold in flight has a worker");
        match worker.wait() {
            Ok(folded) => {
                self.base = Some(folded.generation);
                self.kept = Some(folded.graph);
                self.snapshots_written += 1;
                self.last_snapshot_bytes = folded.bytes;
                if let Some(e) = folded.cleanup {
                    self.last_error = Some(e);
                }
            }
            Err(e) => {
                self.fold_failures += 1;
                self.last_error = Some(e);
            }
        }
    }

    /// Close the active generation, hand the worker the fold of it (with
    /// the chain below it) into `snap.<g+1>`, and move appends to
    /// `wal.<g+1>`. A worker that cannot start is a failed fold.
    fn switch(&mut self) {
        let job = FoldJob {
            base: self.base,
            through: self.generation,
            kept: self.kept.take(),
            views: Arc::clone(&self.catalog),
            capacity: self.image_hint(),
        };
        let worker = match self.worker.take() {
            Some(worker) => Ok(worker),
            None => FoldWorker::start(Arc::clone(&self.vfs)),
        };
        match worker {
            Ok(worker) => {
                worker.submit(job);
                self.worker = Some(worker);
                self.folding = true;
            }
            Err(e) => {
                self.fold_failures += 1;
                self.last_error = Some(e);
            }
        }
        self.move_to(self.generation + 1);
    }

    /// Appends go to a fresh `wal.<generation>` from now on.
    fn move_to(&mut self, generation: u64) {
        self.generation = generation;
        self.wal_records = 0;
        self.wal_len = 0;
        self.txs_since_snapshot = 0;
    }

    /// Encode-buffer size for the next image: the last one's, plus slack.
    fn image_hint(&self) -> usize {
        (self.last_snapshot_bytes + self.last_snapshot_bytes / 8) as usize
    }
}

impl Drop for Durable {
    /// A fold in flight lands (or fails) before the engine goes; the
    /// worker's thread is joined after it.
    fn drop(&mut self) {
        self.join_fold();
    }
}

/// Counters reported by update queries (mirrors Neo4j's summary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Vertices created.
    pub nodes_created: usize,
    /// Edges created.
    pub relationships_created: usize,
    /// Vertices deleted.
    pub nodes_deleted: usize,
    /// Edges deleted.
    pub relationships_deleted: usize,
    /// Properties written (set or removed).
    pub properties_set: usize,
    /// Labels attached.
    pub labels_added: usize,
    /// Labels detached.
    pub labels_removed: usize,
}

/// Outcome of [`GraphEngine::apply_batch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Transactions applied.
    pub transactions: usize,
}

/// Result of [`GraphEngine::execute`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecutionResult {
    /// Output column names (read queries only).
    pub columns: Vec<String>,
    /// Result rows (read queries only).
    pub rows: Vec<Tuple>,
    /// Update counters (update queries only).
    pub stats: UpdateStats,
    /// Vertices and edges the statement's reading part materialised
    /// from the store (its scans, seeks and expansions) — the work
    /// bound `tests/oneshot_work_bound.rs` pins.
    pub rows_scanned: u64,
}

/// The main entry point: a property graph with incrementally maintained
/// openCypher views, all served by **one shared dataflow network** —
/// compiled plans are canonicalised (alpha-renamed, commutatively
/// sorted, σ/π-normalised; see [`pgq_algebra::canon`]) and views whose
/// canonical plans overlap share operator nodes (see
/// [`pgq_ivm::network`]), so maintenance cost tracks affected state,
/// not the number of registered views — even when those views spell the
/// same query with different variable names, conjunct order, or output
/// aliases.
#[derive(Default)]
pub struct GraphEngine {
    graph: PropertyGraph,
    network: DataflowNetwork,
    /// Live views by id, in id order — dropped views leave nothing
    /// behind, so every walk is bounded by the views that exist.
    views: BTreeMap<usize, ViewEntry>,
    /// The id the next registration gets. An id handed out is never
    /// reused, so a stale [`ViewId`] cannot resolve to a later view.
    next_view: usize,
    /// The view reading each sink, so a pass's changed sinks lead
    /// straight to the views (and subscribers) to notify.
    view_of_sink: FxHashMap<SinkId, usize>,
    /// Requested propagation width; `0` means the `PGQ_THREADS` process
    /// default, read once per process (see [`GraphEngine::set_threads`]).
    threads: usize,
    /// Lazily-built worker pool, shared (via `Arc`) with clones so a
    /// fleet of engines does not multiply OS threads.
    pool: Option<Arc<WorkerPool>>,
    /// Durability handle ([`GraphEngine::open_durable`]); `None` for
    /// in-memory engines, which pay zero logging cost on the hot path.
    durable: Option<Durable>,
    /// What [`GraphEngine::execute`] keeps per statement shape.
    shapes: ShapeCache,
}

impl Clone for GraphEngine {
    /// Clones the graph and all view state. Subscribers are **not**
    /// cloned (callbacks are tied to the original engine's consumers);
    /// the worker pool, if any, is shared. Durability is **not**
    /// cloned either: two engines appending to one WAL would interleave
    /// their records into an unreplayable log, so a clone is always an
    /// in-memory engine. The statement-shape cache is copied: its plans
    /// fit the cloned graph as well as they fit this one.
    fn clone(&self) -> GraphEngine {
        GraphEngine {
            graph: self.graph.clone(),
            network: self.network.clone(),
            views: self.views.clone(),
            next_view: self.next_view,
            view_of_sink: self.view_of_sink.clone(),
            threads: self.threads,
            pool: self.pool.clone(),
            durable: None,
            shapes: self.shapes.clone(),
        }
    }
}

impl GraphEngine {
    /// How many statement shapes an engine keeps
    /// ([`GraphEngine::statement_shapes`]); a full cache drops the
    /// oldest. A constant, not a knob: an application has a few dozen
    /// statement shapes, and one more than fits costs one front-end run.
    pub const SHAPE_CAPACITY: usize = 256;

    /// Fresh engine with an empty graph.
    pub fn new() -> GraphEngine {
        GraphEngine::default()
    }

    /// Wrap an existing graph (views can be registered afterwards).
    pub fn from_graph(graph: PropertyGraph) -> GraphEngine {
        GraphEngine {
            graph,
            ..GraphEngine::default()
        }
    }

    /// The underlying graph (read-only; mutate via [`GraphEngine::apply`]
    /// or [`GraphEngine::execute`] so views stay consistent).
    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    // ---- transactions ------------------------------------------------------

    /// Set the delta-propagation width: `1` runs every level of the pass
    /// inline, `n > 1` fans each level of two or more nodes across an
    /// `n`-thread worker pool, and `0` resets to the `PGQ_THREADS`
    /// process default. That default is read once per process; an
    /// in-memory engine has no error channel, so a malformed
    /// `PGQ_THREADS` (or any malformed engine knob) leaves it at width
    /// 1, where [`GraphEngine::open_durable`] refuses to start. For any
    /// width, every view's delta — tuple order included — and results
    /// are identical (see [`DataflowNetwork::on_transaction_with`]).
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        self.threads = threads;
        self.pool = None; // rebuilt lazily at the next transaction
        self
    }

    /// Effective delta-propagation width.
    pub fn threads(&self) -> usize {
        match self.threads {
            0 => EngineConfig::process().threads,
            n => n,
        }
    }

    /// Run one maintenance pass, through the worker pool when the
    /// configured width asks for one.
    fn propagate(&mut self, events: &[ChangeEvent]) {
        let threads = self.threads();
        let workers = if threads > 1 {
            let rebuild = match self.pool.as_deref() {
                Some(p) => p.threads() != threads,
                None => true,
            };
            if rebuild {
                self.pool = Some(Arc::new(WorkerPool::new(threads)));
            }
            self.pool.as_deref()
        } else {
            None
        };
        self.network
            .on_transaction_with(&self.graph, events, workers);
    }

    /// Apply a transaction and maintain every registered view.
    ///
    /// On a durable engine the committed transaction is appended to the
    /// WAL *after* the store accepts it — a crash between commit and
    /// append loses that transaction entirely (async-commit semantics)
    /// but can never log a transaction that did not commit. If the
    /// append (or its covering fsync) **fails**, this commit fails
    /// cleanly: the in-memory mutation is rolled back, a typed
    /// [`EngineError::Durability`] is returned, and the engine stays
    /// usable. Repeated failures trip the breaker into read-only
    /// degraded mode ([`EngineError::ReadOnly`]); see
    /// [`GraphEngine::reset_durability`].
    pub fn apply(&mut self, tx: &Transaction) -> Result<Vec<ChangeEvent>, EngineError> {
        self.check_writable()?;
        let watermarks = self.graph.id_watermarks();
        let events = self.graph.apply(tx)?;
        if let Err((e, force)) = self.wal_commit(Record::Tx(tx)) {
            // The commit never happened: take the in-memory mutation
            // back (ids included — replay determinism) before erroring.
            self.graph.unapply(&events, watermarks);
            return Err(self.commit_failed(e, force));
        }
        self.commit_succeeded();
        self.maintain(&events);
        self.maybe_switch();
        Ok(events)
    }

    /// Apply a sequence of transactions and maintain every view in
    /// **one** propagation pass over their concatenated events. The
    /// store emits events per operation and every scan diffs its memory
    /// against the post-state graph, so the pass sees exactly the event
    /// stream of the equivalent merged transaction: view contents are
    /// identical to applying the transactions one by one, and members
    /// that touch the same vertices pay for them once. The batch is one
    /// change to its subscribers: each view it changed is notified once,
    /// with the batch's net delta, and a view whose changes cancel
    /// within the batch is not notified at all.
    ///
    /// Every transaction is applied atomically as usual; if one fails,
    /// the transactions before it are maintained in one pass and the
    /// error is returned (the failed transaction itself rolls back).
    ///
    /// Durability uses **group commit**: each member is appended to the
    /// WAL individually (so replay reproduces the exact transaction
    /// sequence), but under `PGQ_FSYNC=always` the whole batch shares
    /// one `sync_data` at the end instead of one per member. A failed
    /// member append rolls that member back and fails typed like
    /// [`GraphEngine::apply`]; a failed *batch sync* covers members the
    /// batch already applied, so the engine degrades to read-only
    /// (memory is ahead of disk until an operator runs
    /// [`GraphEngine::reset_durability`]).
    pub fn apply_batch(&mut self, txs: &[Transaction]) -> Result<BatchSummary, EngineError> {
        self.check_writable()?;
        let mut summary = BatchSummary::default();
        let mut events: Vec<ChangeEvent> = Vec::new();
        for tx in txs {
            let watermarks = self.graph.id_watermarks();
            let member = match self.graph.apply(tx) {
                Ok(member) => member,
                Err(e) => {
                    // Views must reflect the transactions that did land
                    // (the summary itself is lost to the error).
                    self.maintain(&events);
                    return Err(e.into());
                }
            };
            if let Err((e, force)) = self.wal_append(Record::Tx(tx)) {
                // This member never committed; the ones before it did.
                // Roll it back, maintain the others, and try to make
                // them durable.
                self.graph.unapply(&member, watermarks);
                self.maintain(&events);
                let flush = self.wal_flush();
                let err = self.commit_failed(e, force);
                if let Err((fe, _)) = flush {
                    // Earlier members were already applied and cannot
                    // be taken back: memory is ahead of disk, so the
                    // breaker trips immediately.
                    return Err(self.commit_failed(fe, true));
                }
                return Err(err);
            }
            events.extend(member);
            summary.transactions += 1;
        }
        self.maintain(&events);
        // Group commit: one sync covers every member of the batch.
        if let Err((e, _)) = self.wal_flush() {
            // The members are applied and cannot be taken back.
            return Err(self.commit_failed(e, summary.transactions > 0));
        }
        self.commit_succeeded();
        self.maybe_switch();
        Ok(summary)
    }

    fn maintain(&mut self, events: &[ChangeEvent]) {
        if events.is_empty() {
            return;
        }
        self.propagate(events);
        // Only the views the pass changed are visited, in id order; each
        // notifies its own subscribers, in subscription order.
        let mut changed: Vec<usize> = self
            .network
            .changed_sinks()
            .iter()
            .map(|sink| self.view_of_sink[sink])
            .collect();
        changed.sort_unstable();
        for i in changed {
            let entry = self.views.get_mut(&i).expect("a changed sink's view");
            if entry.subscribers.0.is_empty() {
                continue;
            }
            let vd = ViewDelta::from_delta(
                self.network.view(entry.sink).name(),
                self.network.last_delta(entry.sink),
            );
            for callback in &mut entry.subscribers.0 {
                callback(&vd);
            }
        }
    }

    /// [`GraphEngine::apply`], also returning each view's delta (empty
    /// for a view the transaction left unchanged). The same commit:
    /// subscribers are notified and the snapshot cadence counts it.
    pub fn apply_with_deltas(
        &mut self,
        tx: &Transaction,
    ) -> Result<Vec<(ViewId, Delta)>, EngineError> {
        // A transaction without events runs no pass, so the sinks still
        // carry the previous one's deltas.
        let quiet = self.apply(tx)?.is_empty();
        let deltas = self.views.iter().map(|(&i, e)| {
            let delta = if !quiet && self.network.sink_changed(e.sink) {
                self.network.last_delta(e.sink).clone()
            } else {
                Delta::new()
            };
            (ViewId(i), delta)
        });
        Ok(deltas.collect())
    }

    // ---- views ---------------------------------------------------------------

    /// Register an incrementally maintained view. Fails with
    /// [`pgq_algebra::AlgebraError::NotMaintainable`] for queries outside
    /// the paper's fragment.
    ///
    /// Registration shares dataflow up to alpha-equivalence: a query
    /// that differs from an existing view only in variable names,
    /// `WHERE` conjunct order, or `RETURN` aliases adds **zero** new
    /// operator nodes ([`GraphEngine::network_node_count`] is the
    /// observable), and a query differing only in its top-level `WHERE`
    /// shares the whole stateful prefix below its private filter.
    pub fn register_view(&mut self, name: &str, cypher: &str) -> Result<ViewId, EngineError> {
        self.register_view_with(
            name,
            cypher,
            CompileOptions::default(),
            RegisterOptions::default(),
        )
    }

    /// Register a view with explicit compile and registration options —
    /// the carry-maps ablation, or a differential twin of the default
    /// path spelled out at the call site (`RegisterOptions { plan:
    /// false, ..Default::default() }` runs the syntactic join order,
    /// `wcoj: WcojMode::Disabled` keeps cyclic patterns on binary join
    /// trees, `wcoj: WcojMode::Forced` with `wcoj_sorted: Some(_)` pins
    /// the fused operator and its backend). Production views use
    /// [`GraphEngine::register_view`].
    ///
    /// On a durable engine the registration is logged as one catalog
    /// record (the view's catalog row) — no image is written — and a
    /// degraded engine refuses it with [`EngineError::ReadOnly`].
    pub fn register_view_with(
        &mut self,
        name: &str,
        cypher: &str,
        options: CompileOptions,
        register: RegisterOptions,
    ) -> Result<ViewId, EngineError> {
        if self.view_by_name(name).is_some() {
            return Err(EngineError::DuplicateView(name.to_string()));
        }
        self.check_writable()?;
        let id = ViewId(self.next_view);
        self.install_view(id.0, name, cypher, options, register)?;
        // Registration changes what a recovery must rebuild: log it
        // before acknowledging it. If the record cannot land, the
        // registration is undone so disk and memory agree.
        if let Err(e) = self.log_catalog(None) {
            let entry = self.views.remove(&id.0).expect("inserted above");
            self.view_of_sink.remove(&entry.sink);
            self.network.drop_sink(entry.sink);
            self.next_view = id.0;
            self.refresh_catalog();
            return Err(e);
        }
        Ok(id)
    }

    /// Compile `cypher` and register it over the current graph as the
    /// view in `slot`: the one registration path, live (next free slot)
    /// and at recovery (the slot the catalog recorded).
    fn install_view(
        &mut self,
        slot: usize,
        name: &str,
        cypher: &str,
        compile: CompileOptions,
        register: RegisterOptions,
    ) -> Result<(), EngineError> {
        let query = parse_query(cypher)?;
        let compiled = compile_query_with(&query, compile)?;
        if !compiled.is_maintainable() {
            return Err(AlgebraError::NotMaintainable(compiled.not_maintainable.join("; ")).into());
        }
        let sink = self
            .network
            .register_with(name, &compiled.fra, &self.graph, register);
        self.next_view = self.next_view.max(slot + 1);
        self.view_of_sink.insert(sink, slot);
        self.views.insert(
            slot,
            ViewEntry {
                sink,
                compiled,
                query_text: cypher.to_string(),
                compile,
                register,
                subscribers: Subscribers::default(),
            },
        );
        self.refresh_catalog();
        Ok(())
    }

    /// Drop a view and its subscribers. Operator nodes shared with
    /// other views survive; the network releases only the nodes no
    /// remaining view reaches.
    ///
    /// On a durable engine the drop is logged as one catalog record, and
    /// a degraded engine refuses it. If the record cannot land, the view
    /// is still gone from memory and the error says so; the next image
    /// (a fold or a snapshot) drops it from disk.
    pub fn drop_view(&mut self, id: ViewId) -> Result<(), EngineError> {
        self.check_writable()?;
        let entry = self.views.remove(&id.0).ok_or(EngineError::UnknownView)?;
        self.view_of_sink.remove(&entry.sink);
        self.network.drop_sink(entry.sink);
        self.refresh_catalog();
        self.log_catalog(Some(id))
    }

    /// Log a view-catalog change — the registration of the newest view
    /// (the catalog's last row: it took the highest slot), or the drop
    /// of `dropped` — as one record, synced at once under
    /// [`FsyncMode::Always`] whatever the group-commit window. A failure
    /// rewrites the log to its last record boundary and counts against
    /// the breaker like a failed commit.
    fn log_catalog(&mut self, dropped: Option<ViewId>) -> Result<(), EngineError> {
        let Some(catalog) = self.durable.as_ref().map(|d| Arc::clone(&d.catalog)) else {
            return Ok(());
        };
        let record = match dropped {
            Some(id) => Record::Drop(id.0 as u32),
            None => Record::Register(catalog.last().expect("a view was just registered")),
        };
        match self.wal_commit(record) {
            Ok(()) => {
                self.commit_succeeded();
                Ok(())
            }
            Err((e, force)) => Err(self.commit_failed(e, force)),
        }
    }

    /// Rebuild the catalog the next images record, after the view set
    /// changed (a no-op until a durable engine's recovery is done).
    fn refresh_catalog(&mut self) {
        if let Some(d) = self.durable.as_mut() {
            d.catalog = catalog(&self.views, &self.network).into();
        }
    }

    /// Look up a view id by name.
    pub fn view_by_name(&self, name: &str) -> Option<ViewId> {
        self.views
            .iter()
            .find(|(_, e)| self.network.view(e.sink).name() == name)
            .map(|(&i, _)| ViewId(i))
    }

    /// Access a view's results through the shared network.
    pub fn view(&self, id: ViewId) -> Result<ViewRef<'_>, EngineError> {
        self.views
            .get(&id.0)
            .map(|e| self.network.view(e.sink))
            .ok_or(EngineError::UnknownView)
    }

    /// The view's current rows (multiplicities expanded).
    pub fn view_results(&self, id: ViewId) -> Result<Vec<Tuple>, EngineError> {
        Ok(self.view(id)?.rows())
    }

    /// All registered views.
    pub fn views(&self) -> impl Iterator<Item = (ViewId, ViewRef<'_>)> {
        self.views
            .iter()
            .map(|(&i, e)| (ViewId(i), self.network.view(e.sink)))
    }

    /// The shared dataflow network serving every registered view
    /// (read-only; for stats, node-sharing inspection, and tests).
    pub fn network(&self) -> &DataflowNetwork {
        &self.network
    }

    // ---- durability ----------------------------------------------------------

    /// Open (or create) a durable engine rooted at `dir`: recover from
    /// the generation-numbered `snap.<g>` / `wal.<g>` files — restore
    /// the graph, register every standing view once, replay the WAL
    /// chain — and arm per-transaction logging.
    ///
    /// Environment knobs, all parsed strictly (a typo is a startup
    /// error, never a silently different engine; unset or empty means
    /// the default):
    /// - `PGQ_THREADS` — delta-propagation width (default 1; see
    ///   [`GraphEngine::set_threads`]).
    /// - `PGQ_FSYNC` — `always`/`1`/`true` syncs at every commit flush
    ///   point; default is OS-buffered.
    /// - `PGQ_FLUSH_WINDOW` — group-commit window under
    ///   `PGQ_FSYNC=always`: one `sync_data` per `n` commits
    ///   (default 1; `n > 1` accepts a documented loss window of up to
    ///   `n - 1` acknowledged commits on power failure).
    /// - `PGQ_SNAPSHOT_EVERY` — cadence in committed transactions
    ///   (default 1024, `0` disables it): every `n` commits the commit
    ///   path switches to a fresh log generation, and a background fold
    ///   writes the closed generations into the next image.
    pub fn open_durable(dir: impl Into<std::path::PathBuf>) -> Result<GraphEngine, EngineError> {
        let config = EngineConfig::from_env()?;
        let vfs = StdVfs::new(dir, config.fsync)
            .map_err(|e| DurabilityError::io(DurOp::SnapshotLoad, &e))?;
        GraphEngine::open_configured(Arc::new(vfs), config)
    }

    /// [`GraphEngine::open_durable`] over an explicit storage layer —
    /// crash tests drive this with the fault-injectable
    /// [`pgq_durability::MemVfs`]. Reads the same environment knobs.
    ///
    /// Recovery protocol, in order:
    /// 1. Plan over the directory ([`pgq_durability::recovery`]): pick
    ///    the newest **readable** snapshot — a corrupt one is
    ///    quarantined and recovery degrades to the previous
    ///    generation's snapshot plus a longer replay, or a cold start;
    ///    never a panic, never a hard error for corruption.
    /// 2. Rebuild the graph and the view catalog from the snapshot
    ///    (older images' state sections are ignored: snapshots hold no
    ///    operator state).
    /// 3. Replay the WAL chain `wal.<base>..wal.<active>`
    ///    ([`pgq_durability::RecoveryPlan::recover`]): transactions into
    ///    the graph, catalog records (view registrations and drops) into
    ///    the catalog; no view exists yet, so replay runs no
    ///    maintenance. Torn tails were already trimmed by the planner;
    ///    a record that stops *applying* cleanly mid-replay is treated
    ///    like tail corruption — the log is trimmed to the last good
    ///    record, later generations are quarantined, and the engine
    ///    opens at the committed prefix.
    /// 4. Register every view of the recovered catalog mode-faithfully
    ///    into its original slot, once, over the recovered graph — the
    ///    one-pass registration [`GraphEngine::register_view`] runs. A
    ///    view registered and dropped inside the chain is never built.
    /// 5. Arm logging on the active generation; the snapshot cadence
    ///    counts from the base snapshot, not from this open, and the
    ///    first fold folds the whole recovered chain. The planner's
    ///    [`RecoveryReport`] stays inspectable via
    ///    [`GraphEngine::recovery_report`].
    pub fn open_durable_with(vfs: Arc<dyn Vfs>) -> Result<GraphEngine, EngineError> {
        GraphEngine::open_configured(vfs, EngineConfig::from_env()?)
    }

    /// Recover from `vfs` and arm logging under `config` (see
    /// [`GraphEngine::open_durable_with`]).
    fn open_configured(
        vfs: Arc<dyn Vfs>,
        config: EngineConfig,
    ) -> Result<GraphEngine, EngineError> {
        let recovered = recovery::plan(vfs.as_ref())?.recover(vfs.as_ref())?;
        let mut engine = GraphEngine::from_graph(recovered.graph);
        engine.threads = config.threads;
        for v in &recovered.views {
            let (compile, register) = catalog_options(v);
            engine.install_view(v.slot as usize, &v.name, &v.query, compile, register)?;
        }
        let report = recovered.report;

        // A tail that could not be rewritten must not be appended to —
        // new records after garbage bytes would be unreadable. Open
        // degraded; reset_durability switches to a fresh generation.
        let degraded = report.tail_repair_failed.then(|| {
            DurabilityError::corrupt(
                DurOp::WalRepair,
                "recovered log tail could not be rewritten; appends would extend garbage",
            )
        });
        engine.durable = Some(Durable {
            vfs,
            generation: recovered.active_generation,
            base: report.base_generation,
            worker: None,
            folding: false,
            kept: None,
            catalog: recovered.views.into(),
            fold_failures: 0,
            wal_records: recovered.active_wal_records,
            wal_len: recovered.active_wal_len,
            fsync: config.fsync,
            flush_window: config.flush_window,
            unsynced: 0,
            snapshot_every: config.snapshot_every,
            // Transactions replayed past the base image count towards
            // the next switch: a process restarted more often than the
            // cadence must still fold, or its log and replay grow
            // without bound.
            txs_since_snapshot: recovered.replayed,
            snapshots_written: 0,
            last_snapshot_bytes: recovered.snapshot_bytes,
            fail_streak: 0,
            max_failures: 3,
            degraded,
            last_error: None,
            recovery: report,
        });
        Ok(engine)
    }

    /// Is this engine logging to a durability directory?
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Override the switch cadence in commits (`0` disables it; see
    /// `PGQ_SNAPSHOT_EVERY`). No-op on in-memory engines.
    pub fn set_snapshot_every(&mut self, every: u64) -> &mut Self {
        if let Some(d) = self.durable.as_mut() {
            d.snapshot_every = every;
        }
        self
    }

    /// Write a full snapshot of the live graph now, on this thread
    /// (after joining a fold in flight): graph dump, id watermarks and
    /// the view catalog — what cannot be recomputed, so the cost is
    /// O(graph) however much state the views hold. Atomic (write to a
    /// temp file, rename). Every snapshot is also a **generation
    /// switchover**: it lands as `snap.<g+1>`, appends move to
    /// `wal.<g+1>`, and the chain it subsumes is deleted only after the
    /// rename — a crash at any point still recovers a committed prefix.
    /// Explicit calls and [`GraphEngine::reset_durability`] run this;
    /// the commit cadence folds in the background, and view DDL appends
    /// a catalog record instead.
    pub fn snapshot(&mut self) -> Result<(), EngineError> {
        self.snapshot_inner().map_err(EngineError::from)
    }

    fn snapshot_inner(&mut self) -> Result<(), DurabilityError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        d.join_fold();
        let target = d.generation + 1;
        d.last_snapshot_bytes = fold::write_image(
            d.vfs.as_ref(),
            target,
            &self.graph,
            &d.catalog,
            d.image_hint(),
        )?;
        d.snapshots_written += 1;
        // The rename is durable; the chain below it is dead weight.
        // Deletion is best-effort — a crash (or an error) here just
        // leaves stale files the next recovery removes.
        if let Err(e) = fold::remove_subsumed(d.vfs.as_ref(), d.base, d.generation) {
            d.last_error = Some(e);
        }
        d.base = Some(target);
        d.kept = None;
        d.unsynced = 0;
        d.move_to(target);
        Ok(())
    }

    /// Refuse updates while degraded.
    fn check_writable(&self) -> Result<(), EngineError> {
        match self.durable.as_ref().and_then(|d| d.degraded.as_ref()) {
            Some(e) => Err(EngineError::ReadOnly(e.clone())),
            None => Ok(()),
        }
    }

    /// Append one committed transaction or catalog change and run the
    /// flush policy (a catalog change syncs whatever the window). On
    /// `Err((error, force_degrade))` the record did not become durable
    /// and the caller must roll the in-memory change back;
    /// `force_degrade` means the failure also covered *previously
    /// acknowledged* commits (group-commit sync failure) and the
    /// breaker must trip immediately.
    fn wal_commit(&mut self, record: Record<'_>) -> Result<(), (DurabilityError, bool)> {
        let pre = self
            .durable
            .as_ref()
            .map(|d| (d.wal_len, d.wal_records, d.txs_since_snapshot))
            .unwrap_or_default();
        self.wal_append(record)?;
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        let due = d.unsynced >= d.flush_window || !matches!(record, Record::Tx(_));
        if d.fsync == FsyncMode::Always && due {
            self.wal_sync(Some(pre))?;
        }
        Ok(())
    }

    /// Append without syncing (the group-commit first half). Only a
    /// transaction counts towards the cadence.
    fn wal_append(&mut self, record: Record<'_>) -> Result<(), (DurabilityError, bool)> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        match wal::append(d.vfs.as_ref(), d.generation, record) {
            Ok(frame) => {
                d.wal_len += frame;
                d.wal_records += 1;
                d.txs_since_snapshot += matches!(record, Record::Tx(_)) as u64;
                if d.fsync == FsyncMode::Always {
                    d.unsynced += 1;
                }
                Ok(())
            }
            Err(e) => {
                // The append may have torn (short write): rewrite the
                // log back to the last record boundary so the file
                // stays appendable. If even that fails, the tail is
                // untrustworthy — degrade immediately.
                let err = DurabilityError::io(DurOp::WalAppend, &e);
                let force = wal::repair(d.vfs.as_ref(), d.generation, d.wal_len).is_err();
                Err((err, force))
            }
        }
    }

    /// Sync the active log if commits are pending (the group-commit
    /// second half). On failure, post-fsyncgate semantics apply: the
    /// unsynced bytes are in limbo — the kernel may have kept them, or
    /// dropped them — so the engine must not trust anything past its
    /// last known durable prefix. If the only at-risk commit is the
    /// current one (`rollback` carries the pre-append log boundary,
    /// record count and cadence count),
    /// the failure is rollbackable: the log is rewritten to that
    /// boundary so the rejected commit can never resurface at
    /// recovery. If previously acknowledged commits were covered,
    /// `force_degrade` is set instead.
    fn wal_sync(
        &mut self,
        rollback: Option<(u64, u64, u64)>,
    ) -> Result<(), (DurabilityError, bool)> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        if d.unsynced == 0 {
            return Ok(());
        }
        match d.vfs.sync(&wal_file(d.generation)) {
            Ok(()) => {
                d.unsynced = 0;
                Ok(())
            }
            Err(e) => {
                let err = DurabilityError::io(DurOp::WalSync, &e);
                match rollback {
                    Some((len, records, since)) if d.unsynced == 1 => {
                        // Only the current commit was at risk: take it
                        // back from the mirrors and physically rewrite
                        // the log to the pre-append boundary (whether
                        // or not the failed fsync kept its bytes).
                        (d.wal_len, d.wal_records, d.txs_since_snapshot) = (len, records, since);
                        d.unsynced = 0;
                        let force = wal::repair(d.vfs.as_ref(), d.generation, len).is_err();
                        Err((err, force))
                    }
                    _ => {
                        // Acknowledged commits may be gone from disk
                        // while they live on in memory — unrecoverable
                        // without operator action.
                        d.unsynced = 0;
                        Err((err, true))
                    }
                }
            }
        }
    }

    /// Flush pending group-commit appends (used by `apply_batch` and
    /// callers that want a durability barrier). A failure here always
    /// forces degradation: the at-risk commits were already applied
    /// and maintained, so they cannot be rolled back individually.
    fn wal_flush(&mut self) -> Result<(), (DurabilityError, bool)> {
        let fsync = self.durable.as_ref().map(|d| d.fsync);
        if fsync == Some(FsyncMode::Always) {
            self.wal_sync(None)
        } else {
            Ok(())
        }
    }

    /// Record a failed commit, trip the breaker when due, and build the
    /// caller's error.
    fn commit_failed(&mut self, e: DurabilityError, force_degrade: bool) -> EngineError {
        if let Some(d) = self.durable.as_mut() {
            d.fail_streak += 1;
            d.last_error = Some(e.clone());
            if d.degraded.is_none() && (force_degrade || d.fail_streak >= d.max_failures) {
                d.degraded = Some(e.clone());
            }
        }
        EngineError::Durability(e)
    }

    fn commit_succeeded(&mut self) {
        if let Some(d) = self.durable.as_mut() {
            d.fail_streak = 0;
        }
    }

    /// Switch generations if the cadence is due — O(1) in the graph:
    /// appends move to `wal.<g+1>`, the fold worker folds the closed
    /// chain into `snap.<g+1>`, and a failed fold lands in `last_error`,
    /// never in a commit. Unsynced commits are synced first; that failing
    /// trips the breaker, as a failed group-commit flush does.
    fn maybe_switch(&mut self) {
        let due = self
            .durable
            .as_ref()
            .is_some_and(|d| d.snapshot_every > 0 && d.txs_since_snapshot >= d.snapshot_every);
        if !due {
            return;
        }
        if let Err((e, force)) = self.wal_flush() {
            self.commit_failed(e, force);
            return;
        }
        let d = self.durable.as_mut().expect("a due cadence is durable");
        d.join_fold();
        d.switch();
    }

    /// Operator-facing durability status: degraded flag, failure
    /// breaker counters, active generation and log size. `None` on
    /// in-memory engines.
    pub fn durability_health(&self) -> Option<DurabilityHealth> {
        self.durable.as_ref().map(|d| DurabilityHealth {
            degraded: d.degraded.clone(),
            fail_streak: d.fail_streak,
            last_error: d.last_error.clone(),
            generation: d.generation,
            wal_records: d.wal_records,
            wal_len: d.wal_len,
            flush_window: d.flush_window,
            snapshots_written: d.snapshots_written,
            last_snapshot_bytes: d.last_snapshot_bytes,
            base_generation: d.base,
            fold_in_flight: d.folding,
            fold_failures: d.fold_failures,
        })
    }

    /// Is the engine refusing updates after repeated durability
    /// failures?
    pub fn is_degraded(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.degraded.is_some())
    }

    /// What recovery found and repaired when this engine opened
    /// (quarantined files, trimmed tails, the generation fallback).
    /// `None` on in-memory engines.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().map(|d| &d.recovery)
    }

    /// Operator action: clear read-only degraded mode after the storage
    /// problem is fixed. Cuts a fresh snapshot of the full in-memory
    /// state (a generation switch, like every snapshot), which
    /// re-baselines disk to memory (healing any divergence a failed
    /// group-commit sync left behind), then re-arms the failure
    /// breaker. Fails typed (and stays degraded) if the disk still
    /// cannot accept the snapshot.
    pub fn reset_durability(&mut self) -> Result<(), EngineError> {
        if self.durable.is_none() {
            return Ok(());
        }
        self.snapshot_inner().map_err(|e| {
            if let Some(d) = self.durable.as_mut() {
                d.last_error = Some(e.clone());
            }
            EngineError::Durability(e)
        })?;
        let d = self.durable.as_mut().expect("checked above");
        d.degraded = None;
        d.fail_streak = 0;
        Ok(())
    }

    /// Override the commit flush policy (see `PGQ_FSYNC`). No-op on
    /// in-memory engines.
    pub fn set_fsync(&mut self, fsync: FsyncMode) -> &mut Self {
        if let Some(d) = self.durable.as_mut() {
            d.fsync = fsync;
        }
        self
    }

    /// Override the group-commit flush window (see `PGQ_FLUSH_WINDOW`;
    /// clamped to >= 1). No-op on in-memory engines.
    pub fn set_flush_window(&mut self, window: u64) -> &mut Self {
        if let Some(d) = self.durable.as_mut() {
            d.flush_window = window.max(1);
        }
        self
    }

    /// Override how many consecutive failed commits trip the read-only
    /// breaker (default 3; clamped to >= 1). No-op on in-memory
    /// engines.
    pub fn set_max_durability_failures(&mut self, max: u64) -> &mut Self {
        if let Some(d) = self.durable.as_mut() {
            d.max_failures = max.max(1);
        }
        self
    }

    // ---- queries -------------------------------------------------------------

    /// One-shot (non-incremental) query via the baseline evaluator.
    /// Supports the full parsed fragment including ORDER BY / SKIP /
    /// LIMIT. Seeks whatever property indexes exist; only
    /// [`GraphEngine::execute`] (which has `&mut self`) builds them and
    /// keeps statement shapes.
    pub fn query(&self, cypher: &str) -> Result<ExecutionResult, EngineError> {
        let query = parse_query(cypher)?;
        if query.is_update() {
            return Err(EngineError::Unsupported(
                "query() is read-only; use execute() for updates".into(),
            ));
        }
        Ok(self.read(&self.plan_read(&query, &[])?, &[]))
    }

    /// Compile and plan a read statement; `params[i]` names parameter
    /// slot `i`.
    fn plan_read(&self, query: &Query, params: &[String]) -> Result<Reading, EngineError> {
        let compiled = compile_query_params(query, CompileOptions::default(), params)?;
        Ok(self.one_shot_plan(compiled).into())
    }

    /// The plan a one-shot statement runs: the compiled FRA through the
    /// planner views use, so join order and filter placement are decided
    /// in one place for statements and views alike. Cyclic regions stay
    /// binary: the evaluator folds a ⨝ⁿ left-deep, one hash index per
    /// input, so a multiway plan would buy it nothing.
    fn one_shot_plan(&self, mut compiled: CompiledQuery) -> CompiledQuery {
        let opts = pgq_algebra::plan::PlanOptions {
            wcoj: WcojMode::Disabled,
        };
        let stats = pgq_ivm::plan_stats(&self.graph);
        compiled.fra = pgq_algebra::plan::plan_with(&compiled.fra, &stats, &opts).fra;
        compiled
    }

    /// Start maintaining the property indexes `fra` can seek.
    fn ensure_indexes(&mut self, fra: &Fra) {
        for (label, key) in pgq_eval::wanted_indexes(fra) {
            self.graph.ensure_prop_index(label, key);
        }
    }

    /// |V| + |E|: the size a statement's plan was chosen for.
    fn graph_size(&self) -> usize {
        self.graph.vertex_count() + self.graph.edge_count()
    }

    /// The front end, once per statement: build the update plan, compile
    /// the reading part and plan it against the live statistics.
    /// `params[i]` names parameter slot `i`.
    fn prepare(&self, query: Query, params: &[String]) -> Result<Statement, EngineError> {
        let body = if !query.is_update() {
            Body::Read(self.plan_read(&query, params)?)
        } else if query.return_clause().is_some() {
            return Err(EngineError::Unsupported(
                "RETURN combined with update clauses".into(),
            ));
        } else {
            let plan = UpdatePlan::build(&query, params)?;
            let bindings = match plan.has_reading {
                true => {
                    let compiled = compile_bindings_params(&query, &plan.items, params)?;
                    Some(self.one_shot_plan(compiled).into())
                }
                false => None,
            };
            Body::Update {
                query,
                plan,
                bindings,
            }
        };
        let planned_at = body.reading().map(|_| self.graph_size());
        Ok(Statement { body, planned_at })
    }

    /// Evaluate a planned reading part with its parameter slots filled.
    fn read(&self, reading: &Reading, values: &[Value]) -> ExecutionResult {
        let mut eval = pgq_eval::Evaluator::new(&self.graph);
        let fra = reading.fra.bind(values);
        let rows = eval.run_rows(&fra, &reading.order_by, reading.skip, reading.limit);
        ExecutionResult {
            columns: reading.columns.clone(),
            rows,
            stats: UpdateStats::default(),
            rows_scanned: eval.rows_scanned,
        }
    }

    /// Run a prepared statement: bind `values` into its slots, evaluate,
    /// and for an update apply the transaction and maintain the views.
    fn run(&mut self, st: &Statement, values: &[Value]) -> Result<ExecutionResult, EngineError> {
        match &st.body {
            Body::Read(reading) => Ok(self.read(reading, values)),
            Body::Update {
                query,
                plan,
                bindings,
            } => {
                let (tx, stats, rows_scanned) =
                    plan.to_transaction(query, bindings.as_ref(), values, &self.graph)?;
                self.apply(&tx)?;
                Ok(ExecutionResult {
                    columns: Vec::new(),
                    rows: Vec::new(),
                    stats,
                    rows_scanned,
                })
            }
        }
    }

    /// The maintained property-equality indexes as `(label, key,
    /// vertices filed)`, sorted — built on the first `execute` of a
    /// `(:label {key: literal})` pattern, kept by every mutation since,
    /// rebuilt on first use after recovery (nothing is persisted).
    pub fn property_indexes(&self) -> Vec<(String, String, usize)> {
        let mut out: Vec<(String, String, usize)> = self
            .graph
            .prop_indexes()
            .into_iter()
            .map(|(l, k, n)| (l.to_string(), k.to_string(), n))
            .collect();
        out.sort();
        out
    }

    /// Execute any supported statement: read queries are evaluated
    /// one-shot; update queries run their reading part, apply the update
    /// clauses atomically, and maintain all views.
    ///
    /// The front end runs once per statement *shape*: the literals of
    /// the text are lifted into parameters, and what parsing, compiling
    /// and planning the rest produced is kept, so the next statement
    /// that differs only in its literals is lexed, bound and evaluated
    /// (see [`GraphEngine::statement_shapes`]). A `$name` parameter is
    /// an error here; bind it with [`GraphEngine::execute_with`].
    pub fn execute(&mut self, cypher: &str) -> Result<ExecutionResult, EngineError> {
        self.execute_with(cypher, &[])
    }

    /// [`GraphEngine::execute`] with values for the statement's `$name`
    /// parameters — the slots its own literals are lifted into, under
    /// the caller's names. Every parameter the statement writes must be
    /// given, and every one given must be written
    /// ([`EngineError::Parameter`]).
    ///
    /// ```
    /// use pgq_common::value::Value;
    /// use pgq_core::GraphEngine;
    ///
    /// let mut engine = GraphEngine::new();
    /// for id in 0..3 {
    ///     engine
    ///         .execute_with("CREATE (:Person {id: $id, score: 0})", &[("id", Value::Int(id))])
    ///         .unwrap();
    /// }
    /// let set = engine
    ///     .execute_with(
    ///         "MATCH (p:Person {id: $id}) SET p.score = $score",
    ///         &[("id", Value::Int(1)), ("score", Value::Int(99))],
    ///     )
    ///     .unwrap();
    /// assert_eq!(set.stats.properties_set, 1);
    /// // One shape each, however many values went through it.
    /// assert_eq!(engine.statement_shapes(), (2, 2, 2, 0));
    /// ```
    pub fn execute_with(
        &mut self,
        cypher: &str,
        params: &[(&str, Value)],
    ) -> Result<ExecutionResult, EngineError> {
        let tokens = pgq_parser::lexer::lex(cypher)?;
        let mut shape = Shape::of(&tokens, true);
        // The statement's own parameters, in slot order. Raised only
        // once the statement is known to parse and compile: its errors
        // come first.
        let given = bind_names(&shape.names, params);
        let size = self.graph_size();
        let statement = loop {
            let cached = self.shapes.map.get(&shape.key).map(|(_, st)| st);
            let stale = match cached {
                Some(st) if st.fits(size) => {
                    self.shapes.hits += 1;
                    break Arc::clone(st);
                }
                other => other.is_some(),
            };
            // Slot names: the lifted literals, then the statement's own.
            let slots: Vec<String> = (0..shape.values.len())
                .map(lifted_name)
                .chain(shape.names.iter().cloned())
                .collect();
            let prepared = parse_tokens(shape.rewrite(&tokens))
                .map_err(EngineError::from)
                .and_then(|query| self.prepare(query, &slots));
            match prepared {
                Ok(st) => {
                    match stale {
                        true => self.shapes.replans += 1,
                        false => self.shapes.misses += 1,
                    }
                    if let (Some(reading), Ok(given)) = (st.body.reading(), &given) {
                        let values = [shape.values.as_slice(), given].concat();
                        self.ensure_indexes(&reading.fra.bind(&values));
                    }
                    let st = Arc::new(st);
                    self.shapes
                        .insert(std::mem::take(&mut shape.key), Arc::clone(&st));
                    break st;
                }
                // A literal the grammar or the compiler needs in place
                // (the shape rules are conservative, not complete): the
                // statement is its exact tokens, and so are its errors.
                Err(_) if !shape.values.is_empty() => shape = Shape::of(&tokens, false),
                Err(e) => return Err(e),
            }
        };
        let mut values = shape.values;
        values.append(&mut given?);
        self.run(&statement, &values)
    }

    /// The statement-shape cache as `(entries, hits, misses, replans)`:
    /// shapes kept now, and — counted since this engine was created,
    /// cloned or recovered — executions that found their shape's plan,
    /// that ran the front end for a new shape, and that re-planned a
    /// kept shape because the graph had left ½–2× the size it was
    /// planned for. Work counts, exact and per engine.
    pub fn statement_shapes(&self) -> (usize, u64, u64, u64) {
        let c = &self.shapes;
        (c.map.len(), c.hits, c.misses, c.replans)
    }

    /// Execute a `;`-separated script of statements in order. The whole
    /// script is parsed up-front (a syntax error executes nothing); at
    /// runtime the atomicity unit is the statement, as in cypher-shell —
    /// statements before a failing one stay committed. Script statements
    /// run the front end each time (no shape is kept or looked up).
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<ExecutionResult>, EngineError> {
        let queries = pgq_parser::parse_script(script)?;
        let mut out = Vec::with_capacity(queries.len());
        for q in queries {
            let st = self.prepare(q, &[])?;
            if let Some(reading) = st.body.reading() {
                self.ensure_indexes(&reading.fra);
            }
            out.push(self.run(&st, &[])?);
        }
        Ok(out)
    }

    /// EXPLAIN: the three pipeline stages, the cost-based plan a view of
    /// this query would register and the maintainability verdict, then
    /// the plan a one-shot `execute`/`query` runs, marked where the
    /// evaluator narrows (`seek Person.id`). For an update statement the
    /// pipeline shown is its reading part's.
    pub fn explain(&self, cypher: &str) -> Result<String, EngineError> {
        let query = parse_query(cypher)?;
        let compiled = if query.is_update() {
            let plan = UpdatePlan::build(&query, &[])?;
            if !plan.has_reading {
                return Ok("no reading part: the update clauses run once\n".into());
            }
            compile_bindings(&query, &plan.items)?
        } else {
            compile_query_with(&query, CompileOptions::default())?
        };
        let mut out = String::new();
        out.push_str("== Stage 1: GRA (graph relational algebra)\n");
        out.push_str(&format!("{}\n", compiled.gra));
        out.push_str("\n== Stage 2: NRA (nested relational algebra)\n");
        out.push_str(&format!("{}\n", compiled.nra));
        out.push_str("\n== Stage 3: FRA (flat relational algebra, inferred schema)\n");
        out.push_str(&compiled.fra.explain());
        if !query.is_update() {
            out.push_str("\n== Stage 4: cost-based plan (live statistics snapshot)\n");
            out.push_str(&compiled.explain_plan(&pgq_ivm::plan_stats(&self.graph)));
            out.push_str("\n== Maintainability\n");
            if compiled.is_maintainable() {
                out.push_str("incrementally maintainable\n");
            } else {
                for reason in &compiled.not_maintainable {
                    out.push_str(&format!("NOT maintainable: {reason}\n"));
                }
            }
        }
        out.push_str("\n== One-shot execution (what execute() / query() evaluate)\n");
        let planned = self.one_shot_plan(compiled);
        out.push_str(&pgq_eval::explain(&planned.fra, &self.graph));
        Ok(out)
    }

    /// Query text a view was registered with.
    pub fn view_query(&self, id: ViewId) -> Result<&str, EngineError> {
        self.views
            .get(&id.0)
            .map(|e| e.query_text.as_str())
            .ok_or(EngineError::UnknownView)
    }

    /// Compiled pipeline of a view (for reports).
    pub fn view_compiled(&self, id: ViewId) -> Result<&CompiledQuery, EngineError> {
        self.views
            .get(&id.0)
            .map(|e| &e.compiled)
            .ok_or(EngineError::UnknownView)
    }

    /// Total live operator nodes in the shared network (the node-sharing
    /// metric: N structurally identical views keep this at one chain).
    pub fn network_node_count(&self) -> usize {
        self.network.node_count()
    }

    /// Subscribe to a view's deltas (Graphflow-style active query): the
    /// callback fires after every transaction that changes the view's
    /// result, with the inserted and removed rows.
    pub fn subscribe(
        &mut self,
        id: ViewId,
        callback: impl FnMut(&ViewDelta) + Send + 'static,
    ) -> Result<(), EngineError> {
        let entry = self.views.get_mut(&id.0).ok_or(EngineError::UnknownView)?;
        entry.subscribers.0.push(Box::new(callback));
        Ok(())
    }

    /// Per-operator network statistics of a view (EXPLAIN-ANALYZE-style).
    pub fn view_stats(&self, id: ViewId) -> Result<pgq_ivm::stats::OpStats, EngineError> {
        Ok(self.view(id)?.network_stats())
    }
}

/// The values of the `$name` parameters a statement writes, in the order
/// of `names`; every name needs a value and every value a name.
fn bind_names(names: &[String], params: &[(&str, Value)]) -> Result<Vec<Value>, EngineError> {
    if let Some((unused, _)) = params.iter().find(|(n, _)| !names.iter().any(|s| s == n)) {
        return Err(EngineError::Parameter(format!(
            "${unused} is given but the statement does not use it"
        )));
    }
    names
        .iter()
        .map(|name| match params.iter().find(|(n, _)| n == name) {
            Some((_, v)) => Ok(v.clone()),
            None => Err(EngineError::Parameter(format!(
                "${name} has no value: pass one with GraphEngine::execute_with"
            ))),
        })
        .collect()
}

/// The live views, in slot order, as a snapshot's catalog records them.
fn catalog(views: &BTreeMap<usize, ViewEntry>, network: &DataflowNetwork) -> Vec<SnapshotView> {
    let entry = |(&slot, e): (&usize, &ViewEntry)| SnapshotView {
        slot: slot as u32,
        name: network.view(e.sink).name().to_string(),
        query: e.query_text.clone(),
        schema_mode: match e.compile.schema_mode {
            SchemaMode::Inferred => 0,
            SchemaMode::CarryMaps => 1,
        },
        plan: e.register.plan,
        wcoj_mode: match e.register.wcoj {
            WcojMode::Disabled => 0,
            WcojMode::CostBased => 1,
            WcojMode::Forced => 2,
        },
        wcoj_sorted: e.register.wcoj_sorted,
    };
    views.iter().map(entry).collect()
}

/// The options a catalog entry was registered under.
fn catalog_options(v: &SnapshotView) -> (CompileOptions, RegisterOptions) {
    let compile = CompileOptions {
        schema_mode: match v.schema_mode {
            1 => SchemaMode::CarryMaps,
            _ => SchemaMode::Inferred,
        },
    };
    let register = RegisterOptions {
        plan: v.plan,
        wcoj: match v.wcoj_mode {
            0 => WcojMode::Disabled,
            2 => WcojMode::Forced,
            _ => WcojMode::CostBased,
        },
        wcoj_sorted: v.wcoj_sorted,
    };
    (compile, register)
}

/// What [`GraphEngine::execute`] keeps per statement shape
/// ([`pgq_parser::shape`]), and how often it was of use.
#[derive(Clone, Default)]
struct ShapeCache {
    /// Shape key → (insertion number, prepared statement).
    map: HashMap<Vec<u8>, (u64, Arc<Statement>)>,
    inserted: u64,
    hits: u64,
    misses: u64,
    replans: u64,
}

impl ShapeCache {
    fn insert(&mut self, key: Vec<u8>, st: Arc<Statement>) {
        if self.map.len() >= GraphEngine::SHAPE_CAPACITY && !self.map.contains_key(&key) {
            let oldest = self.map.iter().min_by_key(|(_, (n, _))| *n);
            if let Some(k) = oldest.map(|(k, _)| k.clone()) {
                self.map.remove(&k);
            }
        }
        self.inserted += 1;
        self.map.insert(key, (self.inserted, st));
    }
}

/// A statement after the front end, its parameter slots still open.
struct Statement {
    body: Body,
    /// |V| + |E| when the reading part was planned (`None`: there is
    /// none). Statistics decide join order only, so a stale plan is
    /// slow, never wrong — and is re-planned once the graph is outside
    /// ½–2× of this.
    planned_at: Option<usize>,
}

impl Statement {
    fn fits(&self, size: usize) -> bool {
        self.planned_at
            .is_none_or(|at| size <= 2 * at && at <= 2 * size)
    }
}

enum Body {
    Read(Reading),
    Update {
        query: Query,
        plan: UpdatePlan,
        /// The planned bindings query; `None` without a reading clause.
        bindings: Option<Reading>,
    },
}

impl Body {
    fn reading(&self) -> Option<&Reading> {
        match self {
            Body::Read(r) => Some(r),
            Body::Update { bindings, .. } => bindings.as_ref(),
        }
    }
}

/// A planned reading part: what the evaluator runs, without the
/// compilation stages behind it.
struct Reading {
    fra: Fra,
    columns: Vec<String>,
    order_by: Vec<(ScalarExpr, bool)>,
    skip: Option<usize>,
    limit: Option<usize>,
}

impl From<CompiledQuery> for Reading {
    fn from(c: CompiledQuery) -> Reading {
        Reading {
            fra: c.fra,
            columns: c.columns,
            order_by: c.order_by,
            skip: c.skip,
            limit: c.limit,
        }
    }
}

/// Interpreter for the update clauses of a query.
struct UpdatePlan {
    /// Projection items for the bindings query: bound variables first,
    /// then every SET / CREATE value expression that reads a variable.
    items: Vec<(Expr, String)>,
    /// The value expressions that read none (`-1`, `1 + 1`, a
    /// parameter), resolved: evaluated once per execution, never
    /// projected — so they need no reading clause to produce a row.
    consts: Vec<(Expr, ScalarExpr)>,
    /// Does the query have any reading clause (MATCH/UNWIND)?
    has_reading: bool,
}

impl UpdatePlan {
    /// `params[i]` names parameter slot `i` (see [`GraphEngine::prepare`]).
    fn build(query: &Query, params: &[String]) -> Result<UpdatePlan, EngineError> {
        let mut bound_vars: Vec<String> = Vec::new();
        let mut has_reading = false;
        // First pass: find variables bound by reading clauses.
        for clause in &query.clauses {
            match clause {
                Clause::Match { pattern, .. } => {
                    has_reading = true;
                    for p in &pattern.paths {
                        if let Some(v) = &p.variable {
                            push_unique(&mut bound_vars, v);
                        }
                        if let Some(v) = &p.start.variable {
                            push_unique(&mut bound_vars, v);
                        }
                        for (r, n) in &p.steps {
                            if let Some(v) = &r.variable {
                                push_unique(&mut bound_vars, v);
                            }
                            if let Some(v) = &n.variable {
                                push_unique(&mut bound_vars, v);
                            }
                        }
                    }
                }
                Clause::Unwind { alias, .. } => {
                    has_reading = true;
                    push_unique(&mut bound_vars, alias);
                }
                _ => {}
            }
        }
        // Second pass: which bound vars and value expressions do the
        // update clauses need?
        let mut items: Vec<(Expr, String)> = Vec::new();
        let need_var = |items: &mut Vec<(Expr, String)>, v: &str| {
            if bound_vars.iter().any(|b| b == v) && !items.iter().any(|(_, n)| n == v) {
                items.push((Expr::Variable(v.to_string()), v.to_string()));
            }
        };
        let mut created: Vec<String> = Vec::new();
        for clause in &query.clauses {
            match clause {
                Clause::Create(pattern) => {
                    for p in &pattern.paths {
                        for node in std::iter::once(&p.start).chain(p.steps.iter().map(|(_, n)| n))
                        {
                            if let Some(v) = &node.variable {
                                if bound_vars.iter().any(|b| b == v) {
                                    need_var(&mut items, v);
                                } else if !created.contains(v) {
                                    created.push(v.clone());
                                }
                            }
                            for (_, e) in &node.props {
                                for v in e.free_variables() {
                                    need_var(&mut items, &v);
                                }
                            }
                        }
                        for (r, _) in &p.steps {
                            for (_, e) in &r.props {
                                for v in e.free_variables() {
                                    need_var(&mut items, &v);
                                }
                            }
                        }
                    }
                }
                Clause::Delete { exprs: es, .. } => {
                    for e in es {
                        match e {
                            Expr::Variable(v) => need_var(&mut items, v),
                            _ => {
                                return Err(EngineError::Unsupported(
                                    "DELETE of a non-variable expression".into(),
                                ))
                            }
                        }
                    }
                }
                Clause::Set(sets) => {
                    for item in sets {
                        match item {
                            SetItem::Property {
                                variable, value, ..
                            } => {
                                need_var(&mut items, variable);
                                for v in value.free_variables() {
                                    need_var(&mut items, &v);
                                }
                            }
                            SetItem::Labels { variable, .. } => need_var(&mut items, variable),
                        }
                    }
                }
                Clause::Remove(removes) => {
                    for item in removes {
                        match item {
                            RemoveItem::Property { variable, .. }
                            | RemoveItem::Labels { variable, .. } => need_var(&mut items, variable),
                        }
                    }
                }
                _ => {}
            }
        }
        // Value expressions: a literal is read in place, one without
        // free variables is a constant of the statement, the rest are
        // projected as extra columns (so SET values can reference
        // matched properties).
        let mut consts: Vec<(Expr, ScalarExpr)> = Vec::new();
        let mut value = |e: &Expr| -> Result<(), EngineError> {
            match e {
                Expr::Literal(_) => {}
                e if e.free_variables().is_empty() => {
                    if !consts.iter().any(|(c, _)| c == e) {
                        consts.push((e.clone(), resolve_constant(e, params)?));
                    }
                }
                e if has_reading => items.push((e.clone(), format!("__u{}", items.len()))),
                e => {
                    return Err(EngineError::Unsupported(format!(
                        "property value {e} reads a variable, but the statement has no MATCH \
                         or UNWIND to bind it"
                    )))
                }
            }
            Ok(())
        };
        for clause in &query.clauses {
            match clause {
                Clause::Set(sets) => {
                    for item in sets {
                        if let SetItem::Property { value: e, .. } = item {
                            value(e)?;
                        }
                    }
                }
                Clause::Create(pattern) => {
                    for p in &pattern.paths {
                        let nodes = std::iter::once(&p.start).chain(p.steps.iter().map(|(_, n)| n));
                        let rels = p.steps.iter().map(|(r, _)| &r.props);
                        for (_, e) in nodes.map(|n| &n.props).chain(rels).flatten() {
                            value(e)?;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(UpdatePlan {
            items,
            consts,
            has_reading,
        })
    }

    /// Evaluate the reading part (`bindings`: its planned query, `None`
    /// when the statement has no reading clause) with `values` in the
    /// parameter slots and build the atomic transaction; also returns
    /// the rows the reading part scanned.
    fn to_transaction(
        &self,
        query: &Query,
        bindings: Option<&Reading>,
        values: &[Value],
        graph: &PropertyGraph,
    ) -> Result<(Transaction, UpdateStats, u64), EngineError> {
        // Bindings: one row per match (bag semantics).
        let mut eval = pgq_eval::Evaluator::new(graph);
        let (columns, rows): (&[String], Vec<Tuple>) = match bindings {
            Some(reading) => {
                let mut rows = Vec::new();
                for (t, m) in eval.run(&reading.fra.bind(values)) {
                    for _ in 0..m.max(0) {
                        rows.push(t.clone());
                    }
                }
                (&reading.columns, rows)
            }
            None => (&[], vec![Tuple::unit()]),
        };
        let col = |name: &str| -> Option<usize> { columns.iter().position(|c| c == name) };
        // A constant that does not evaluate is `null`, as a projected
        // value expression is.
        let consts: Vec<Value> = self
            .consts
            .iter()
            .map(|(_, c)| c.bind(values).eval(&Tuple::unit()).unwrap_or(Value::Null))
            .collect();
        // The value of a SET / CREATE property expression on `row`.
        let value_of = |e: &Expr, row: &Tuple| -> Result<Value, EngineError> {
            if let Expr::Literal(v) = e {
                Ok(v.clone())
            } else if let Some(i) = self.consts.iter().position(|(c, _)| c == e) {
                Ok(consts[i].clone())
            } else if let Some(i) = self.items.iter().position(|(ie, _)| ie == e) {
                Ok(row.get(i).clone())
            } else {
                Err(EngineError::Unsupported(format!(
                    "unprojected property expression {e}"
                )))
            }
        };

        let mut tx = Transaction::new();
        let mut stats = UpdateStats::default();
        let mut deleted_nodes: Vec<pgq_common::ids::VertexId> = Vec::new();
        let mut deleted_edges: Vec<pgq_common::ids::EdgeId> = Vec::new();

        for clause in &query.clauses {
            match clause {
                Clause::Create(pattern) => {
                    for row in &rows {
                        self.create_pattern(pattern, row, columns, &mut tx, &mut stats, value_of)?;
                    }
                }
                Clause::Delete { detach, exprs } => {
                    for row in &rows {
                        for e in exprs {
                            let Expr::Variable(v) = e else { unreachable!() };
                            let i = col(v).ok_or_else(|| {
                                EngineError::Unsupported(format!(
                                    "DELETE of unbound variable `{v}`"
                                ))
                            })?;
                            match row.get(i) {
                                Value::Node(n) => {
                                    if !deleted_nodes.contains(n) {
                                        deleted_nodes.push(*n);
                                        tx.delete_vertex(*n, *detach);
                                        stats.nodes_deleted += 1;
                                    }
                                }
                                Value::Rel(r) => {
                                    if !deleted_edges.contains(r) {
                                        deleted_edges.push(*r);
                                        tx.delete_edge(*r);
                                        stats.relationships_deleted += 1;
                                    }
                                }
                                Value::Null => {}
                                other => {
                                    return Err(EngineError::Unsupported(format!(
                                        "DELETE of a {} value",
                                        other.type_name()
                                    )))
                                }
                            }
                        }
                    }
                }
                Clause::Set(sets) => {
                    for row in &rows {
                        for item in sets {
                            match item {
                                SetItem::Property {
                                    variable,
                                    key,
                                    value,
                                } => {
                                    let vi = col(variable).ok_or_else(|| {
                                        EngineError::Unsupported(format!(
                                            "SET on unbound variable `{variable}`"
                                        ))
                                    })?;
                                    let val = value_of(value, row)?;
                                    let key = Symbol::intern(key);
                                    match row.get(vi) {
                                        Value::Node(n) => {
                                            tx.set_vertex_prop(*n, key, val);
                                            stats.properties_set += 1;
                                        }
                                        Value::Rel(r) => {
                                            tx.set_edge_prop(*r, key, val);
                                            stats.properties_set += 1;
                                        }
                                        Value::Null => {}
                                        other => {
                                            return Err(EngineError::Unsupported(format!(
                                                "SET on a {} value",
                                                other.type_name()
                                            )))
                                        }
                                    }
                                }
                                SetItem::Labels { variable, labels } => {
                                    let vi = col(variable).ok_or_else(|| {
                                        EngineError::Unsupported(format!(
                                            "SET on unbound variable `{variable}`"
                                        ))
                                    })?;
                                    if let Value::Node(n) = row.get(vi) {
                                        for l in labels {
                                            tx.add_label(*n, Symbol::intern(l));
                                            stats.labels_added += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                Clause::Remove(removes) => {
                    for row in &rows {
                        for item in removes {
                            match item {
                                RemoveItem::Property { variable, key } => {
                                    let vi = col(variable).ok_or_else(|| {
                                        EngineError::Unsupported(format!(
                                            "REMOVE on unbound variable `{variable}`"
                                        ))
                                    })?;
                                    let key = Symbol::intern(key);
                                    match row.get(vi) {
                                        Value::Node(n) => {
                                            tx.set_vertex_prop(*n, key, Value::Null);
                                            stats.properties_set += 1;
                                        }
                                        Value::Rel(r) => {
                                            tx.set_edge_prop(*r, key, Value::Null);
                                            stats.properties_set += 1;
                                        }
                                        _ => {}
                                    }
                                }
                                RemoveItem::Labels { variable, labels } => {
                                    let vi = col(variable).ok_or_else(|| {
                                        EngineError::Unsupported(format!(
                                            "REMOVE on unbound variable `{variable}`"
                                        ))
                                    })?;
                                    if let Value::Node(n) = row.get(vi) {
                                        for l in labels {
                                            tx.remove_label(*n, Symbol::intern(l));
                                            stats.labels_removed += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Ok((tx, stats, eval.rows_scanned))
    }

    fn create_pattern(
        &self,
        pattern: &Pattern,
        row: &Tuple,
        columns: &[String],
        tx: &mut Transaction,
        stats: &mut UpdateStats,
        value_of: impl Fn(&Expr, &Tuple) -> Result<Value, EngineError> + Copy,
    ) -> Result<(), EngineError> {
        let col = |name: &str| columns.iter().position(|c| c == name);
        let eval_props = |props: &[(String, Expr)]| -> Result<Properties, EngineError> {
            let mut out = Properties::new();
            for (k, e) in props {
                out.set(Symbol::intern(k), value_of(e, row)?);
            }
            Ok(out)
        };
        // Per-row map from variable name to the node it denotes.
        let mut local: Vec<(String, NodeRef)> = Vec::new();
        for path in &pattern.paths {
            if path.variable.is_some() {
                return Err(EngineError::Unsupported("named paths in CREATE".into()));
            }
            let mut resolve_node = |node: &pgq_parser::ast::NodePattern,
                                    tx: &mut Transaction,
                                    stats: &mut UpdateStats|
             -> Result<NodeRef, EngineError> {
                if let Some(v) = &node.variable {
                    if let Some((_, r)) = local.iter().find(|(n, _)| n == v) {
                        return Ok(*r);
                    }
                    if let Some(i) = col(v) {
                        let Value::Node(n) = row.get(i) else {
                            return Err(EngineError::Unsupported(format!(
                                "CREATE endpoint `{v}` is not a node"
                            )));
                        };
                        let r = NodeRef::Existing(*n);
                        local.push((v.clone(), r));
                        return Ok(r);
                    }
                }
                let labels: Vec<Symbol> = node.labels.iter().map(|l| Symbol::intern(l)).collect();
                let props = eval_props(&node.props)?;
                let r = tx.create_vertex(labels, props);
                stats.nodes_created += 1;
                if let Some(v) = &node.variable {
                    local.push((v.clone(), r));
                }
                Ok(r)
            };
            let mut prev = resolve_node(&path.start, tx, stats)?;
            for (rel, node) in &path.steps {
                if rel.range.is_some() {
                    return Err(EngineError::Unsupported(
                        "variable-length relationships in CREATE".into(),
                    ));
                }
                if rel.types.len() != 1 {
                    return Err(EngineError::Unsupported(
                        "CREATE relationships need exactly one type".into(),
                    ));
                }
                let next = resolve_node(node, tx, stats)?;
                let ty = Symbol::intern(&rel.types[0]);
                let props = eval_props(&rel.props)?;
                use pgq_common::dir::Direction;
                match rel.direction {
                    Direction::Out => {
                        tx.create_edge(prev, next, ty, props);
                    }
                    Direction::In => {
                        tx.create_edge(next, prev, ty, props);
                    }
                    Direction::Both => {
                        return Err(EngineError::Unsupported(
                            "undirected relationships in CREATE".into(),
                        ))
                    }
                }
                stats.relationships_created += 1;
                prev = next;
            }
        }
        Ok(())
    }
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}
