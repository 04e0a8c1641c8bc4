//! Durability for the pgq engine: write-ahead logging, snapshots, and
//! the pieces of crash recovery that live below the engine layer.
//!
//! The design follows the classic WAL + checkpoint split, adapted to an
//! IVM engine: what is persisted is the *graph* and the view catalog;
//! the *operator network* maintaining the standing views is a function
//! of the two and is rebuilt, never stored:
//!
//! - [`wal`] appends one checksummed record per committed transaction.
//!   Replaying the log through the normal transaction path reproduces
//!   both the graph and (via delta propagation) every view — the log is
//!   logically complete on its own.
//! - [`snapshot`] bounds replay: it captures the graph dump, the exact
//!   id-allocation watermarks and each standing view's registration
//!   metadata. Recovery restores the graph, registers every view once
//!   (one pass rebuilds each operator memory as fast as it would
//!   decode), then replays only the WAL tail. The format keeps a list
//!   of fingerprint-keyed operator-state sections; the engine writes it
//!   empty and ignores it on read.
//! - [`fold`] writes the next image off the commit path: it replays the
//!   closed log generations onto their base image's graph on the
//!   engine's one long-lived fold worker and never touches the live
//!   graph.
//! - [`recovery`] plans recovery over the generation-numbered
//!   `snap.<g>` / `wal.<g>` directory: it picks the newest readable
//!   snapshot (quarantining corrupt ones and falling back a
//!   generation), trims torn WAL tails, refuses to replay logs beyond a
//!   broken chain link, and reports every repair it made.
//! - [`vfs`] is the fault-injection seam: all I/O goes through a tiny
//!   trait with a real-directory backend and an in-memory backend that
//!   can kill the simulated process at an arbitrary byte boundary (the
//!   write *fuse*) or inject live storage errors — EIO, ENOSPC, short
//!   writes, failed fsyncs with post-failure loss of unsynced bytes,
//!   torn renames — at the N-th operation.
//! - [`error`] classifies every storage failure into a typed
//!   [`DurabilityError`] the engine's degradation policy is built on.
//! - [`codec`] is the hand-rolled binary format underneath both files
//!   (offline-shim rule: no external serialization or checksum crates).
//!
//! What lives *above* this crate: the engine decides when to snapshot,
//! switch generations, hand a fold to its worker and wait for it, owns
//! the view table being restored and re-registers it, and implements the
//! commit-rollback / read-only-degraded contract on top of
//! [`DurabilityError`]. This crate only knows bytes, graphs, and
//! transactions.

pub mod codec;
pub mod error;
pub mod fold;
pub mod recovery;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use codec::CodecError;
pub use error::{DurKind, DurOp, DurabilityError};
pub use fold::{FoldJob, FoldWorker, Folded};
pub use recovery::{RecoveryPlan, RecoveryReport, QUARANTINE_SUFFIX};
pub use snapshot::{Snapshot, SnapshotError, SnapshotView, SnapshotWriter, StateBag};
pub use vfs::{Fault, FsyncMode, MemDisk, MemVfs, StdVfs, Vfs};
pub use wal::WalTail;
