//! Typed durability errors.
//!
//! Every fallible storage interaction in the durability layer is
//! classified by *what was being attempted* ([`DurOp`]) and *how it
//! failed* ([`DurKind`]). The engine layer builds its failure policy on
//! this type: a failed WAL append fails exactly one commit (rolled back
//! in memory), repeated failures flip the engine into read-only
//! degraded mode, and a corrupt snapshot at recovery is quarantined
//! rather than fatal. `io::Error` is not `Clone`, so the error carries
//! the [`std::io::ErrorKind`] plus a rendered detail string — enough to
//! stay `Clone + PartialEq` like the engine's other error variants.

use std::fmt;
use std::io;

/// The durability operation that failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DurOp {
    /// Appending a committed transaction's record to the active WAL.
    WalAppend,
    /// `fsync` of the active WAL (the group-commit flush point).
    WalSync,
    /// Rewriting the WAL's valid prefix after a failed or torn append.
    WalRepair,
    /// Reading / decoding a WAL file.
    WalLoad,
    /// Atomically writing a snapshot.
    SnapshotWrite,
    /// Reading / decoding a snapshot.
    SnapshotLoad,
    /// Listing or deleting superseded generation files.
    Cleanup,
    /// Replaying the WAL chain at recovery.
    Replay,
    /// The fold worker could not start, or a fold panicked on it.
    Fold,
    /// Parsing an engine configuration knob (`PGQ_THREADS`,
    /// `PGQ_FSYNC`, …).
    Config,
}

impl fmt::Display for DurOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DurOp::WalAppend => "WAL append",
            DurOp::WalSync => "WAL fsync",
            DurOp::WalRepair => "WAL tail repair",
            DurOp::WalLoad => "WAL load",
            DurOp::SnapshotWrite => "snapshot write",
            DurOp::SnapshotLoad => "snapshot load",
            DurOp::Cleanup => "generation cleanup",
            DurOp::Replay => "WAL replay",
            DurOp::Fold => "log fold",
            DurOp::Config => "engine configuration",
        };
        f.write_str(s)
    }
}

/// How a durability operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DurKind {
    /// Generic I/O failure (EIO and friends), by [`io::ErrorKind`].
    Io(io::ErrorKind),
    /// The device is out of space (ENOSPC).
    NoSpace,
    /// An `fsync` failed. Per post-fsyncgate semantics the engine must
    /// assume bytes written since the last *successful* sync are gone.
    SyncFailed,
    /// Stored bytes do not decode (checksum, magic, codec, or a replay
    /// record inconsistent with the state it applies to).
    Corrupt,
    /// A configuration knob could not be parsed.
    BadConfig,
}

/// A classified durability failure: operation, kind, human detail.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DurabilityError {
    /// What was being attempted.
    pub op: DurOp,
    /// How it failed.
    pub kind: DurKind,
    /// Rendered context (underlying error text, file name, …).
    pub detail: String,
}

impl DurabilityError {
    /// Classify an `io::Error` under `op`.
    pub fn io(op: DurOp, e: &io::Error) -> DurabilityError {
        let kind = if is_enospc(e) {
            DurKind::NoSpace
        } else if op == DurOp::WalSync {
            DurKind::SyncFailed
        } else {
            DurKind::Io(e.kind())
        };
        DurabilityError {
            op,
            kind,
            detail: e.to_string(),
        }
    }

    /// A corruption verdict under `op`.
    pub fn corrupt(op: DurOp, detail: impl Into<String>) -> DurabilityError {
        DurabilityError {
            op,
            kind: DurKind::Corrupt,
            detail: detail.into(),
        }
    }

    /// A configuration parse failure.
    pub fn config(detail: impl Into<String>) -> DurabilityError {
        DurabilityError {
            op: DurOp::Config,
            kind: DurKind::BadConfig,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            DurKind::Io(k) => format!("I/O ({k:?})"),
            DurKind::NoSpace => "no space".to_string(),
            DurKind::SyncFailed => "fsync failed".to_string(),
            DurKind::Corrupt => "corrupt".to_string(),
            DurKind::BadConfig => "bad configuration".to_string(),
        };
        write!(f, "{} failed [{kind}]: {}", self.op, self.detail)
    }
}

impl std::error::Error for DurabilityError {}

/// ENOSPC detection: match the raw errno so it works on every stable
/// toolchain, plus the typed kind where the platform maps it.
fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28) || e.kind() == io::ErrorKind::StorageFull
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enospc_classifies_as_no_space() {
        let e = io::Error::from_raw_os_error(28);
        let d = DurabilityError::io(DurOp::WalAppend, &e);
        assert_eq!(d.kind, DurKind::NoSpace);
    }

    #[test]
    fn sync_errors_classify_as_sync_failed() {
        let e = io::Error::other("injected");
        let d = DurabilityError::io(DurOp::WalSync, &e);
        assert_eq!(d.kind, DurKind::SyncFailed);
        assert!(d.to_string().contains("fsync"));
    }

    #[test]
    fn generic_io_keeps_its_kind() {
        let e = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        let d = DurabilityError::io(DurOp::SnapshotWrite, &e);
        assert_eq!(d.kind, DurKind::Io(io::ErrorKind::PermissionDenied));
    }
}
