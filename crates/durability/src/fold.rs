//! Folding closed log generations into the next image, off the commit
//! path: a WAL generation *is* the graph delta since its base image, so
//! a [`fold`] on a thread of its own ([`FoldThread`]) starts from the
//! base image's graph (kept from the previous fold, else `snap.<base>`
//! decoded, else empty), replays the closed `wal.<base..=g>`, writes
//! `snap.<g+1>` ([`write_image`]), deletes what that subsumes
//! ([`remove_subsumed`]) and hands its graph back for the next fold —
//! never touching the live graph. It writes one atomic file and then
//! deletes, so wherever it stops the directory is an interrupted
//! switchover [`crate::recovery`] plans over, reaching the same graph.

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;

use pgq_graph::store::PropertyGraph;

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
    /// The view catalog the image records.
    pub views: Vec<SnapshotView>,
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
        for tx in log.txs.iter().skip(std::mem::take(&mut skip)) {
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

/// A [`fold`] on a thread of its own, or the reason it could not start.
pub struct FoldThread(Result<JoinHandle<Result<Folded, DurabilityError>>, DurabilityError>);

impl FoldThread {
    /// Start folding `job` over `vfs`.
    pub fn spawn(vfs: Arc<dyn Vfs>, job: FoldJob) -> FoldThread {
        let thread = std::thread::Builder::new().name("pgq-fold".into());
        let spawned = thread.spawn(move || fold(vfs.as_ref(), job));
        FoldThread(spawned.map_err(|e| DurabilityError::io(DurOp::Fold, &e)))
    }

    /// Wait for the fold. A thread that did not start, or panicked,
    /// comes back as a typed [`DurOp::Fold`] error.
    pub fn join(self) -> Result<Folded, DurabilityError> {
        self.0?.join().unwrap_or_else(|panic| {
            let why = match panic.downcast_ref::<String>() {
                Some(s) => s.as_str(),
                None => panic.downcast_ref::<&str>().copied().unwrap_or(""),
            };
            let e = io::Error::other(format!("the fold thread panicked: {why}"));
            Err(DurabilityError::io(DurOp::Fold, &e))
        })
    }
}
