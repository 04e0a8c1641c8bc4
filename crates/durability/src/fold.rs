//! Folding closed log generations into the next image, off the commit
//! path: a WAL generation *is* the graph delta since its base image, so
//! a [`fold`] on the engine's fold worker ([`FoldWorker`]) starts from
//! the base image's graph (kept from the previous fold, else
//! `snap.<base>` decoded, else empty), replays the closed
//! `wal.<base..=g>`'s transactions (its catalog records are already in
//! the job's catalog), writes `snap.<g+1>` ([`write_image`]), deletes what
//! that subsumes ([`remove_subsumed`]) and hands its graph back for the
//! next fold — never touching the live graph. It writes one atomic file
//! and then deletes, so wherever it stops the directory is an
//! interrupted switchover [`crate::recovery`] plans over, reaching the
//! same graph.
//!
//! The worker is one thread per engine, started once and parked between
//! jobs: a switch hands it a job over a channel instead of paying a
//! thread spawn, which would cost more than the rest of the switch.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pgq_graph::store::PropertyGraph;

use crate::codec::Record;
use crate::error::{DurOp, DurabilityError};
use crate::snapshot::{snap_file, Snapshot, SnapshotError, SnapshotView, SnapshotWriter};
use crate::vfs::Vfs;
use crate::wal::{self, wal_file};

/// What a fold is asked to do.
pub struct FoldJob {
    /// The chain's base image (`None`: a cold start from `wal.0`).
    pub base: Option<u64>,
    /// The last closed generation: `snap.<through + 1>` is written.
    pub through: u64,
    /// The graph of `snap.<base>` if the caller kept it — an image with
    /// no skip count, as every image written here; decoded otherwise.
    pub kept: Option<PropertyGraph>,
    /// The view catalog the image records: the engine's at the switch,
    /// shared with the engine that keeps it between view-set changes.
    pub views: Arc<[SnapshotView]>,
    /// Pre-size of the encode buffer.
    pub capacity: usize,
}

/// A fold whose image landed.
pub struct Folded {
    /// `through + 1`: the next chain's base.
    pub generation: u64,
    /// The graph the image holds, for the next fold to start from.
    pub graph: PropertyGraph,
    /// Encoded size of the image.
    pub bytes: u64,
    /// A subsumed file the fold could not delete (recovery sweeps it).
    pub cleanup: Option<DurabilityError>,
}

/// Fold the closed chain `job` names into `snap.<through + 1>`. Reads
/// only files no one appends to; every failure is typed and leaves the
/// chain recoverable as it was.
pub fn fold(vfs: &dyn Vfs, job: FoldJob) -> Result<Folded, DurabilityError> {
    let (mut graph, mut skip) = match (job.kept, job.base) {
        (Some(graph), _) => (graph, 0),
        (None, Some(base)) => {
            let load = |e: SnapshotError| match e {
                SnapshotError::Io(e) => DurabilityError::io(DurOp::SnapshotLoad, &e),
                e => DurabilityError::corrupt(DurOp::SnapshotLoad, format!("snap.{base}: {e}")),
            };
            let snap = Snapshot::load(vfs, base).map_err(load)?.ok_or_else(|| {
                DurabilityError::corrupt(DurOp::SnapshotLoad, format!("snap.{base} is missing"))
            })?;
            (
                snap.restore_graph().map_err(load)?,
                snap.wal_records as usize,
            )
        }
        (None, None) => (PropertyGraph::new(), 0),
    };
    for g in job.base.unwrap_or(0)..=job.through {
        let log = wal::load(vfs, g).map_err(|e| DurabilityError::io(DurOp::WalLoad, &e))?;
        if !log.tail.is_clean() {
            let detail = format!("closed {} ends in a damaged record", wal_file(g));
            return Err(DurabilityError::corrupt(DurOp::WalLoad, detail));
        }
        // The skip count applies to the base generation's own log only.
        // Catalog records are skipped: the job's catalog is the engine's
        // at the switch that closed `through`, which every record of the
        // closed chain had already reached.
        for record in log.records().skip(std::mem::take(&mut skip)) {
            let Record::Tx(tx) = record else { continue };
            graph.apply(tx).map_err(|e| {
                DurabilityError::corrupt(DurOp::Replay, format!("{}: {e}", wal_file(g)))
            })?;
        }
    }
    let generation = job.through + 1;
    let bytes = write_image(vfs, generation, &graph, &job.views, job.capacity)?;
    let cleanup = remove_subsumed(vfs, job.base, job.through).err();
    Ok(Folded {
        generation,
        graph,
        bytes,
        cleanup,
    })
}

/// Write `graph` and `views` atomically as `snap.<generation>` and return
/// its size — every image the engine writes, synchronous or folded. The
/// image anchors a fresh, empty log and holds no operator state.
pub fn write_image(
    vfs: &dyn Vfs,
    generation: u64,
    graph: &PropertyGraph,
    views: &[SnapshotView],
    capacity: usize,
) -> Result<u64, DurabilityError> {
    let mut w = SnapshotWriter::new(capacity, 0, graph);
    w.views(views);
    w.states(std::iter::empty());
    let bytes = w.finish();
    vfs.write_atomic(&snap_file(generation), &bytes)
        .map_err(|e| DurabilityError::io(DurOp::SnapshotWrite, &e))?;
    Ok(bytes.len() as u64)
}

/// Delete what `snap.<to + 1>` subsumes — `wal.<base..=to>` and
/// `snap.<base>` (from `wal.0` on a cold start) — once that image is
/// durable. Every file is tried; the first failure is returned.
pub fn remove_subsumed(vfs: &dyn Vfs, base: Option<u64>, to: u64) -> Result<(), DurabilityError> {
    let first = base.unwrap_or(0);
    let mut result = Ok(());
    for name in (first..=to).map(wal_file).chain([snap_file(first)]) {
        if let Err(e) = vfs.remove(&name) {
            result = result.and(Err(DurabilityError::io(DurOp::Cleanup, &e)));
        }
    }
    result
}

/// The one thread an engine's [`fold`]s run on, parked between jobs.
/// Jobs run in submission order, one at a time; each [`wait`] collects
/// the oldest result not yet collected.
///
/// [`wait`]: FoldWorker::wait
pub struct FoldWorker {
    /// `None` only while dropping: closing it ends the thread's loop.
    jobs: Option<Sender<FoldJob>>,
    done: Receiver<Result<Folded, DurabilityError>>,
    thread: Option<JoinHandle<()>>,
}

impl FoldWorker {
    /// Start the `pgq-fold` thread folding over `vfs`, or report why it
    /// could not start.
    pub fn start(vfs: Arc<dyn Vfs>) -> Result<FoldWorker, DurabilityError> {
        let (jobs, inbox) = mpsc::channel::<FoldJob>();
        let (outbox, done) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("pgq-fold".into())
            .spawn(move || {
                for job in inbox {
                    let folded = catch_unwind(AssertUnwindSafe(|| fold(vfs.as_ref(), job)));
                    if outbox.send(folded.unwrap_or_else(panicked)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| DurabilityError::io(DurOp::Fold, &e))?;
        Ok(FoldWorker {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        })
    }

    /// Hand `job` to the worker.
    pub fn submit(&self, job: FoldJob) {
        if let Some(jobs) = &self.jobs {
            // A worker that is gone drops the job; `wait` reports that.
            let _ = jobs.send(job);
        }
    }

    /// Wait for the oldest submitted job not yet waited for — call it
    /// once per [`FoldWorker::submit`]; with nothing submitted it
    /// blocks. A fold that panicked comes back as a typed
    /// [`DurOp::Fold`] error, and the worker keeps serving.
    pub fn wait(&self) -> Result<Folded, DurabilityError> {
        self.done.recv().unwrap_or_else(|_| {
            let e = io::Error::other("the fold worker is gone");
            Err(DurabilityError::io(DurOp::Fold, &e))
        })
    }
}

impl Drop for FoldWorker {
    /// Close the queue and join the thread; a job still queued runs first.
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A fold's panic as the typed error [`FoldWorker::wait`] returns.
fn panicked(panic: Box<dyn std::any::Any + Send>) -> Result<Folded, DurabilityError> {
    let why = match panic.downcast_ref::<String>() {
        Some(s) => s.as_str(),
        None => panic.downcast_ref::<&str>().copied().unwrap_or(""),
    };
    let e = io::Error::other(format!("the fold panicked: {why}"));
    Err(DurabilityError::io(DurOp::Fold, &e))
}
